package ooo

import (
	"fmt"

	"nda/internal/cache"
	"nda/internal/core"
	"nda/internal/isa"
)

// Step advances the simulation by one cycle. Stages run back-to-front so
// that results flow between stages with realistic single-cycle visibility:
// completions and broadcasts happen before commit, commit before issue, and
// newly fetched instructions cannot dispatch until FrontEndDepth cycles
// after fetch.
//
//ndavet:hotpath
func (c *Core) Step() error {
	c.cycle++
	c.progress = false

	completed := c.completeExecution()
	c.exposeSafeLoads(completed)
	c.broadcastStage(completed)
	if err := c.commitStage(); err != nil {
		return err
	}
	if !c.halted {
		c.issueStage()
		c.dispatchStage()
		c.fetchStage()
	}
	if c.san != nil {
		c.san.check(c)
	}

	// A halting cycle commits, so it never trips the deadlock guard.
	if c.cycle-c.lastCommit > c.p.DeadlockCycles {
		return c.deadlockErr()
	}
	return nil
}

// deadlockErr builds the no-commit diagnostic. Step calls it only inside
// its error return, so the formatting stays off the measured hot path
// (alloclint's cold-span exemption covers return statements of
// error-returning functions).
func (c *Core) deadlockErr() error {
	head := "empty"
	if c.robLen > 0 {
		e := c.robAt(0)
		head = fmt.Sprintf("%v @%#x issued=%v completed=%v bcast=%v fault=%v",
			e.Inst, e.PC, e.Issued, e.Node.Completed, e.Node.Broadcast, e.Fault)
	}
	return fmt.Errorf("ooo: no commit for %d cycles at cycle %d (head: %s)", c.p.DeadlockCycles, c.cycle, head)
}

func (c *Core) readP(p int) uint64 {
	if p == noPReg {
		return 0
	}
	return c.regVal[p]
}

func (c *Core) pReady(p int) bool {
	if p == noPReg {
		return true
	}
	return c.regReady[p]
}

// ---- completion ----

// completeExecution finishes every issued entry whose execution latency
// elapsed this cycle: results are written to the physical register file
// (without marking it ready — that is the broadcast's job), branches
// resolve (possibly squashing and clearing guards), and store addresses
// resolve (possibly detecting memory-order violations). It walks the
// executing set, not the ROB. Returns the completed entries in age order
// for broadcast arbitration.
func (c *Core) completeExecution() []*Entry {
	// Nothing in execution, or nothing due yet: skip the walk.
	// nextCompleteAt may be stale-low after a squash (costing one wasted
	// walk), never stale-high.
	if len(c.exec) == 0 || c.nextCompleteAt > c.cycle {
		return nil
	}
	done := c.doneBuf[:0]
	nextDue := ^uint64(0)
	for i := 0; i < len(c.exec); i++ {
		e := c.entryAt(c.exec[i])
		if e.CompleteAt > c.cycle {
			if e.CompleteAt < nextDue {
				nextDue = e.CompleteAt
			}
			continue
		}
		e.Node.Completed = true
		if e.DestP != noPReg {
			c.regVal[e.DestP] = e.Result
		} else {
			// Nothing to propagate: destination-less micro-ops are
			// trivially "broadcast".
			e.Node.Broadcast = true
		}
		if e.Inst.Op == isa.OpFence {
			c.fenceCompleted(e)
		}
		if e.Inflight {
			e.Inflight = false
			if e.OffChip {
				c.offChipLoads--
			}
		}

		switch {
		case e.Inst.IsCondBranch() || e.Inst.Op == isa.OpJalr:
			c.resolveBranch(e)
			c.clearGuards(e)
			// A squash inside resolveBranch (or resolveStore, below) drops
			// younger entries from the executing set before they can
			// complete. Only the part of the set after i shrinks, so the
			// walk stays valid.
		case e.Inst.Op == isa.OpJal:
			// Direct jump: fetch already followed it; nothing to resolve.
			e.Node.GuardResolved = true
		case e.Inst.IsStore():
			c.resolveStore(e)
		}

		//ndavet:allow alloclint:op appends into doneBuf, preallocated to ROBSize at reset; never grows
		done = append(done, e)
	}
	if len(done) > 0 {
		w := 0
		for _, si := range c.exec {
			if !c.rob[si].Node.Completed {
				c.exec[w] = si
				w++
			}
		}
		c.exec = c.exec[:w]
	}
	c.nextCompleteAt = nextDue
	if len(done) > 0 {
		c.progress = true
	}
	return done
}

// resolveBranch trains the predictors with the branch's actual outcome,
// resumes a waiting front end, and squashes on misprediction. BTB updates
// happen here — at execution, on speculative and wrong paths alike — and
// are never rolled back: the paper's §3 covert channel.
func (c *Core) resolveBranch(e *Entry) {
	e.Node.GuardResolved = true
	if e.Node.Class == isa.ClassBranch {
		if c.unresolvedBranches > 0 {
			c.unresolvedBranches--
		}
	}
	c.stats.BranchesResolved++

	if e.Inst.IsCondBranch() && e.HasGshCkpt {
		c.gsh.Update(e.PC, e.Taken, e.GshCkpt)
	}
	if e.Inst.Op == isa.OpJalr && c.p.SpeculativeBTBUpdate {
		c.btb.Update(e.PC, e.Target)
		c.traceChannel(ChanBTBUpdate, e.PC, e.Target)
	}

	if !e.Predicted {
		// The front end stalled waiting for this branch (BTB miss,
		// RAS underflow, or SpecOff mode): resume, no squash.
		if c.fetchWait && c.fetchWaitSq == e.Seq {
			c.fetchWait = false
			c.fetchDead = false
			c.fetchPC = e.Target
			if c.fetchStall < c.cycle+1 {
				c.fetchStall = c.cycle + 1
			}
		}
		return
	}

	mispredicted := e.PredTaken != e.Taken || (e.Taken && e.PredTarget != e.Target)
	if !mispredicted {
		return
	}
	c.stats.Mispredicts++
	next := e.Target
	if !e.Taken {
		next = e.PC + isa.InstBytes
	}
	c.squashFrom(e.Seq+1, next)
	if e.Inst.IsCondBranch() && e.HasGshCkpt {
		// The squash rewound history to just after this branch's
		// (wrong) predicted bit; replace it with the actual outcome.
		c.gsh.Restore(e.GshCkpt, e.Taken)
	}
}

// resolveStore publishes a store's now-known address: younger loads that
// already executed with stale data are squashed (memory-order violation),
// and surviving loads drop their bypass guards on this store.
func (c *Core) resolveStore(e *Entry) {
	e.AddrKnown = true
	e.Node.GuardResolved = true

	// Violation scan: the eldest younger load that read overlapping data
	// from anywhere older than this store observed a stale value.
	var victim *Entry
	size := e.Inst.MemBytes()
	for _, li := range c.lq {
		ld := c.entryAt(li)
		if ld.Seq <= e.Seq || !ld.Issued || !ld.AddrKnown {
			continue
		}
		if overlaps(e.Addr, size, ld.Addr, ld.Inst.MemBytes()) && ld.ForwardSeq < e.Seq {
			if victim == nil || ld.Seq < victim.Seq {
				victim = ld
			}
		}
	}
	if victim != nil {
		c.stats.OrderViolations++
		c.squashFrom(victim.Seq, victim.PC)
	}
	// Clear the bypass guards this store held on surviving loads. This must
	// happen even on the violation path: the store resolves exactly once,
	// and loads older than the squash point live on.
	for _, li := range c.lq {
		bp := c.bypassed[li]
		for i, s := range bp {
			if s == e.Slot {
				//ndavet:allow alloclint:op removal via append to a prefix reslice; the result is shorter than the original, so no growth
				c.bypassed[li] = append(bp[:i], bp[i+1:]...)
				c.entryAt(li).Node.BypassGuards--
				break
			}
		}
	}
}

// ---- safety & broadcast ----

// clearGuards is the incremental §5.1 resolve-walk, run when branch b
// resolves. A guard bit clears only when the eldest unresolved branch
// resolves, which b was iff its own bit is clear; then every younger entry
// up to and including the next unresolved branch becomes safe. Each entry's
// bit clears at most once, so the walks cost O(1) per instruction.
// Policy.RecomputeGuards, the full-ROB walk, is the sanitizer's oracle for
// this frontier.
func (c *Core) clearGuards(b *Entry) {
	if !c.policy.GuardBranches || b.Node.UnderGuard {
		return
	}
	i := c.robIndex(b) + 1
	if c.guardsClearedFrom < 0 {
		// The walk completes entries in age order, so the first clear of a
		// cycle starts at its oldest cleared entry.
		c.guardsClearedFrom = i
	}
	for ; i < c.robLen; i++ {
		n := &c.robAt(i).Node
		n.UnderGuard = false
		if n.Class == isa.ClassBranch && !n.GuardResolved {
			return
		}
	}
}

// exposeSafeLoads applies InvisiSpec-Spectre exposures for loads that left
// the speculative shadow this cycle, in age order: those that completed
// already unguarded, then every completed entry whose guard cleared. An
// invisible load becomes exposable only at one of those two moments.
func (c *Core) exposeSafeLoads(done []*Entry) {
	from := c.guardsClearedFrom
	c.guardsClearedFrom = -1
	if c.policy.LoadVisibility != core.InvisibleUntilResolved {
		return
	}
	for _, e := range done {
		// Entries at or after from were guarded before this cycle; the
		// range walk below covers the ones that cleared.
		if !e.Node.UnderGuard && (from < 0 || c.robIndex(e) < from) {
			c.exposeLoad(e)
		}
	}
	if from < 0 {
		return
	}
	for i := from; i < c.robLen; i++ {
		e := c.robAt(i)
		if e.Node.UnderGuard {
			break
		}
		if e.Node.Completed {
			c.exposeLoad(e)
		}
	}
}

// exposeLoad installs a completed invisible load's line once it is safe:
// when it leaves the speculative shadow, or at the latest at retirement.
func (c *Core) exposeLoad(e *Entry) {
	if !e.Invisible || e.Exposed {
		return
	}
	c.hier.InstallData(e.Addr)
	c.traceChannel(ChanDCacheExpose, e.Addr, 0)
	e.Exposed = true
	c.stats.Exposures++
	c.progress = true
}

// broadcastStage arbitrates the tag broadcast ports: instructions completing
// this cycle have priority; deferred (completed earlier, newly safe)
// instructions compete for the remaining ports in age order (§5.1). A
// completing instruction that gets no broadcast joins the pending-broadcast
// set, the deferred candidates.
func (c *Core) broadcastStage(completedNow []*Entry) {
	ports := c.p.BroadcastPorts
	for _, e := range completedNow {
		if e.DestP == noPReg {
			continue // completion marked it broadcast: nothing to propagate
		}
		if ports > 0 && c.policy.MayBroadcast(&e.Node, c.atHead(e)) {
			c.doBroadcast(e)
			ports--
		} else {
			c.bcast = c.insertByAge(c.bcast, e)
		}
	}
	// An entry refused above would be refused again, so only entries that
	// completed in earlier cycles can broadcast here.
	deferred := 0
	for _, si := range c.bcast {
		if ports == 0 {
			break
		}
		e := c.entryAt(si)
		if !c.policy.MayBroadcast(&e.Node, c.atHead(e)) {
			continue
		}
		if !e.HasSafeSince {
			e.HasSafeSince = true
			e.SafeSince = c.cycle
			c.progress = true
		}
		if c.cycle < e.SafeSince+uint64(c.policy.ExtraBroadcastDelay) {
			continue
		}
		c.doBroadcast(e)
		ports--
		deferred++
	}
	if deferred > 0 {
		w := 0
		for _, si := range c.bcast {
			if !c.rob[si].Node.Broadcast {
				c.bcast[w] = si
				w++
			}
		}
		c.bcast = c.bcast[:w]
	}
}

// doBroadcast is the tag broadcast: e's destination register becomes
// ready and wakes its waiters, visible to this cycle's issue stage.
func (c *Core) doBroadcast(e *Entry) {
	c.regReady[e.DestP] = true
	c.wake(e.DestP)
	e.Node.Broadcast = true
	e.BcastCycle = c.cycle
	c.progress = true
	if c.cycle > e.CompleteAt {
		c.stats.DeferredBroadcasts++
		c.stats.DeferralCycles += c.cycle - e.CompleteAt
	}
}

func (c *Core) atHead(e *Entry) bool {
	return c.robLen > 0 && c.robAt(0) == e
}

// ---- commit ----

func (c *Core) commitStage() error {
	committed, err := c.commitInsts()
	// The per-cycle stall accounting. skipTo replicates the committed==0
	// arm for bulk-skipped dead cycles; the two must stay in lockstep.
	switch {
	case committed > 0:
		c.stats.CommitCycles++
		c.lastCommit = c.cycle
		c.progress = true
	case c.robLen == 0:
		c.stats.FrontendStalls++
	case c.robAt(0).isMem() && !c.robAt(0).Node.Completed:
		c.stats.MemStallCycles++
	default:
		c.stats.BackendStalls++
	}
	c.stats.Cycles++
	c.stats.Committed += uint64(committed)
	if c.offChipLoads > 0 {
		c.stats.MLPSum += uint64(c.offChipLoads)
		c.stats.MLPCycles++
	}
	return err
}

// commitInsts retires up to CommitWidth ready instructions from the ROB
// head and reports how many retired (commitStage wraps it with the stall
// accounting the old deferred closure used to do).
func (c *Core) commitInsts() (int, error) {
	committed := 0

	if c.commitValidate > c.cycle {
		return committed, nil // InvisiSpec validation in progress blocks retirement
	}

	for budget := c.p.CommitWidth; budget > 0 && c.robLen > 0; budget-- {
		e := c.robAt(0)
		if !e.Node.Completed {
			return committed, nil
		}

		// A completed faulting head delivers its fault now, before any
		// wait for its own tag broadcast and before InvisiSpec exposure:
		// the fault squashes the dependents instead of waking them, and a
		// squashed invisible load is never exposed or validated. Waiting
		// on an NDA-deferred broadcast first would invert that order —
		// the eldest-unretired wake-up would land a cycle before the
		// squash, giving a direct dependent of the faulting load one
		// cycle to issue and fill the cache.
		if e.Fault != isa.FaultNone {
			c.traceRetire(e)
			c.retired++
			committed++
			c.stats.Faults++
			return committed, c.deliverFault(e)
		}

		if e.DestP != noPReg && !e.Node.Broadcast {
			return committed, nil // waiting for a (possibly NDA-deferred) broadcast
		}
		if c.policy.LoadRestriction && e.Node.Class == isa.ClassLoad &&
			e.DestP != noPReg && e.BcastCycle == c.cycle {
			// Load restriction: the head-of-ROB wake-up and the retirement
			// are sequential commit-stage actions — the load retires the
			// cycle after it wakes its dependents (§5.3).
			return committed, nil
		}

		// InvisiSpec exposure/validation at the retirement safe point.
		if e.Invisible && !e.Exposed {
			c.exposeLoad(e)
			if !e.WasPresent {
				lat := uint64(c.hier.Params().L1D.HitLatency)
				c.commitValidate = c.cycle + lat
				c.stats.ValidationStall += lat
				return committed, nil // retire after validation completes
			}
		}

		if err := c.retire(e); err != nil {
			return committed, err
		}
		committed++
		if c.halted {
			return committed, nil
		}
	}
	return committed, nil
}

// retire commits the head entry's architectural side effects and frees it.
func (c *Core) retire(e *Entry) error {
	c.traceRetire(e)
	inst := e.Inst
	switch {
	case inst.IsStore():
		c.mem.Write(e.Addr, inst.MemBytes(), c.readP(e.Src2P))
		c.hier.Data(e.Addr) // timing side effect of the store's fill
		c.traceChannel(ChanDCacheFill, e.Addr, 0)
		if len(c.sq) > 0 && c.sq[0] == e.Slot {
			c.sq = popFront(c.sq)
		}
	case inst.IsLoad():
		if len(c.lq) > 0 && c.lq[0] == e.Slot {
			c.lq = popFront(c.lq)
		}
	case inst.Op == isa.OpWrmsr:
		c.msr[uint16(inst.Imm)] = c.readP(e.Src1P)
	case inst.Op == isa.OpSpecOff:
		c.noSpec = true
		// The front end stopped at this instruction; resume it now that
		// the no-speculation window is architecturally active.
		if c.fetchDead {
			c.fetchDead = false
			c.fetchPC = e.PC + isa.InstBytes
			if c.fetchStall < c.cycle+1 {
				c.fetchStall = c.cycle + 1
			}
			c.lastFetchLine = ^uint64(0)
		}
	case inst.Op == isa.OpSpecOn:
		c.noSpec = false
	case inst.Op == isa.OpJalr && !c.p.SpeculativeBTBUpdate:
		c.btb.Update(e.PC, e.Target)
		c.traceChannel(ChanBTBUpdate, e.PC, e.Target)
	case inst.Op == isa.OpInvalid:
		return fmt.Errorf("ooo: committed invalid instruction at pc=%#x", e.PC)
	case inst.Op == isa.OpHalt:
		c.halted = true
	}

	if e.DestP != noPReg && e.PrevP != noPReg {
		//ndavet:allow alloclint:op free-list append; the list never exceeds PhysRegs, the capacity New gives it
		c.freeList = append(c.freeList, e.PrevP)
	}
	if e.Issued {
		c.stats.DispatchToIssueSum += e.IssuedAt - e.DispatchedAt
		c.stats.DispatchToIssueCount++
	}
	c.retired++
	e.reset()
	c.robHead = ringIndex(c.robHead, 1, len(c.rob))
	c.robLen--
	return nil
}

// traceRetire hands the committing head e's life-cycle record to
// TraceRetire. retire and the fault path both call it, so every committed
// instruction is traced once.
func (c *Core) traceRetire(e *Entry) {
	if c.TraceRetire == nil {
		return
	}
	ev := TraceEvent{
		Seq: e.Seq, PC: e.PC, Inst: e.Inst, Fault: e.Fault,
		Fetch: e.FetchedAt, Dispatch: e.DispatchedAt,
		Issue: e.IssuedAt, Complete: e.CompleteAt, Retire: c.cycle,
	}
	if e.DestP != noPReg {
		ev.Broadcast = e.BcastCycle
	}
	//ndavet:allow alloclint:call trace hook; nil in measured runs
	c.TraceRetire(ev)
}

// deliverFault takes the architectural fault at the head of the ROB:
// everything from the faulting instruction on is squashed and fetch vectors
// to the trap handler. Without a handler the fault is fatal.
func (c *Core) deliverFault(e *Entry) error {
	handler := c.msr[isa.MSRTrapHandler]
	if handler == 0 {
		return fmt.Errorf("ooo: unhandled fault %v at pc=%#x addr=%#x", e.Fault, e.PC, e.Addr)
	}
	c.msr[isa.MSRTrapCause] = uint64(e.Fault)
	c.msr[isa.MSRTrapAddr] = e.Addr
	if e.Inst.Op == isa.OpRdmsr || e.Inst.Op == isa.OpWrmsr {
		c.msr[isa.MSRTrapAddr] = uint64(uint16(e.Inst.Imm))
	}
	c.squashFrom(e.Seq, handler)
	return nil
}

// popFront drops q's head in place, keeping the slice anchored to the start
// of its backing array so the queue's fixed capacity is never lost to
// re-slicing (the queues are at most 32 entries; the copy is cheaper than a
// ring's index arithmetic on every scan).
func popFront(q []int32) []int32 {
	copy(q, q[1:])
	return q[:len(q)-1]
}

// ---- squash ----

// squashFrom removes every instruction with sequence number >= seq from the
// pipeline — fetch queue and ROB — restoring the rename table, free list,
// and predictor checkpoints, then redirects fetch to newPC.
func (c *Core) squashFrom(seq, newPC uint64) {
	c.stats.Squashes++
	c.progress = true

	// Fetch queue slots are the youngest instructions; rewind their
	// predictor checkpoints youngest-first, then drop them all (their seqs
	// are always >= any ROB seq, and squash points never land inside the
	// fetch queue's seq range with entries to keep). Slot seqs ascend with
	// queue position, so dropping is a tail truncation of the ring.
	for i := c.fqLen - 1; i >= 0; i-- {
		k := ringIndex(c.fqHead, i, len(c.fetchQ))
		s := &c.fetchQ[k]
		if s.seq < seq {
			continue
		}
		if s.hasGshCkpt {
			c.gsh.SetHistory(s.gshCkpt)
		}
		if s.hasRASCkpt {
			c.ras.Restore(c.fqRAS[k])
		}
	}
	for c.fqLen > 0 && c.fqAt(c.fqLen-1).seq >= seq {
		c.fqLen--
	}

	// Drop squashed entries from the schedulers before the ROB walk resets
	// them (reset zeroes Seq, which the queue filter keys on).
	c.filterQueues(seq)

	for c.robLen > 0 {
		e := c.robAt(c.robLen - 1)
		if e.Seq < seq {
			break
		}
		if e.DestP != noPReg {
			rd, _ := e.Inst.WritesReg()
			c.rat[rd] = e.PrevP
			//ndavet:allow alloclint:op free-list append; the list never exceeds PhysRegs, the capacity New gives it
			c.freeList = append(c.freeList, e.DestP)
		}
		if e.InIQ {
			c.iqRemove(e)
		}
		if e.Inst.Op == isa.OpFence && !e.Node.Completed {
			c.fencesInFlight--
		}
		if e.HasGshCkpt {
			c.gsh.SetHistory(e.GshCkpt)
		}
		if e.HasRASCkpt {
			c.ras.Restore(c.robRAS[e.Slot])
		}
		if e.Node.Class == isa.ClassBranch && !e.Node.GuardResolved && c.unresolvedBranches > 0 {
			c.unresolvedBranches--
		}
		if e.Inflight && e.OffChip {
			c.offChipLoads--
		}
		c.stats.SquashedInsts++
		e.reset()
		c.robLen--
	}

	if c.fetchWait && c.fetchWaitSq >= seq {
		c.fetchWait = false
	}
	c.fetchDead = false
	c.fetchPC = newPC
	if s := c.cycle + uint64(c.p.RedirectPenalty); s > c.fetchStall {
		c.fetchStall = s
	}
	c.lastFetchLine = ^uint64(0)
}

func (c *Core) filterQueues(seq uint64) {
	c.exec = c.filterQueue(c.exec, seq)
	c.bcast = c.filterQueue(c.bcast, seq)
	c.lq = c.filterQueue(c.lq, seq)
	c.sq = c.filterQueue(c.sq, seq)
}

// filterQueue drops the slots at or above the squash point. A method
// rather than a closure inside filterQueues so the squash path stays
// visible to the static hot-path walk.
func (c *Core) filterQueue(q []int32, seq uint64) []int32 {
	kept := q[:0]
	for _, si := range q {
		if c.rob[si].Seq < seq {
			//ndavet:allow alloclint:op compaction into q[:0] appends at most len(q) elements, so it can never grow the backing array
			kept = append(kept, si)
		}
	}
	return kept
}

// ---- issue & execute ----

// issueStage issues up to IssueWidth ready entries, oldest first. It walks
// the ready set, not the issue queue: an entry whose operands have not all
// broadcast is never visited.
func (c *Core) issueStage() {
	budget := c.p.IssueWidth
	issued := 0
	for i := c.nextReady(0); i >= 0 && budget > 0; i = c.nextReady(i + 1) {
		e := c.robAt(i)
		if e.RetryAt > c.cycle {
			continue
		}
		if c.serializeBlocked(e) {
			continue
		}
		if !c.execute(e) {
			// Replay scheduled: RetryAt moved, so the cycle is not dead
			// even though nothing issued.
			c.progress = true
			continue
		}
		e.Issued = true
		e.IssuedAt = c.cycle
		c.iqRemove(e)
		c.exec = c.insertByAge(c.exec, e)
		if e.CompleteAt < c.nextCompleteAt || len(c.exec) == 1 {
			c.nextCompleteAt = e.CompleteAt
		}
		budget--
		issued++
	}
	if issued > 0 {
		c.stats.ILPSum += uint64(issued)
		c.stats.ILPCycles++
		c.progress = true
	}
}

// insertByAge adds e's slot at its age position in q, an age-ordered slot
// list with capacity ROBSize (the executing or the pending-broadcast set),
// and returns the longer list. Entries issue and complete out of order, but
// each stage visits them oldest first, so e usually lands at or near the
// tail.
func (c *Core) insertByAge(q []int32, e *Entry) []int32 {
	i := len(q)
	q = q[:i+1] // within capacity: each set holds at most ROBSize entries
	for ; i > 0 && c.rob[q[i-1]].Seq > e.Seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = e.Slot
	return q
}

// serializeBlocked enforces FENCE (no younger instruction may issue until
// the fence completes; the fence itself waits for all older instructions to
// complete) and RDCYCLE (waits for all older instructions to complete, like
// rdtscp's pseudo-serialization).
func (c *Core) serializeBlocked(e *Entry) bool {
	switch e.Inst.Op {
	case isa.OpFence, isa.OpRdcycle, isa.OpSpecOff, isa.OpSpecOn, isa.OpHalt:
		return !c.oldersCompleted(e)
	case isa.OpRdmsr:
		// WRMSR takes architectural effect at commit, so an MSR read must
		// wait for older in-flight writes to the same MSR to drain. It may
		// still issue speculatively otherwise — the LazyFP/v3a leak path.
		if c.olderMSRWritePending(e) {
			return true
		}
	}
	return c.olderFencePending(e)
}

// olderMSRWritePending reports whether an older un-retired WRMSR targets the
// same MSR as the read e.
func (c *Core) olderMSRWritePending(e *Entry) bool {
	for i := 0; i < c.robLen; i++ {
		o := c.robAt(i)
		if o.Seq >= e.Seq {
			return false
		}
		if o.Inst.Op == isa.OpWrmsr && o.Inst.Imm == e.Inst.Imm {
			return true
		}
	}
	return false
}

func (c *Core) oldersCompleted(e *Entry) bool {
	for i := 0; i < c.robLen; i++ {
		o := c.robAt(i)
		if o.Seq >= e.Seq {
			return true
		}
		if !o.Node.Completed {
			return false
		}
	}
	return true
}

func (c *Core) olderFencePending(e *Entry) bool {
	return c.fencesInFlight > 0 && c.fenceSeq < e.Seq
}

// fenceCompleted retires the oldest un-completed FENCE, f, from the fence
// frontier: fenceSeq moves to the next younger un-completed FENCE.
func (c *Core) fenceCompleted(f *Entry) {
	c.fencesInFlight--
	if c.fencesInFlight == 0 {
		return
	}
	for i := c.robIndex(f) + 1; i < c.robLen; i++ {
		if o := c.robAt(i); o.Inst.Op == isa.OpFence && !o.Node.Completed {
			c.fenceSeq = o.Seq
			return
		}
	}
}

// execute begins execution of e this cycle: operands are read, the result
// (and any fault) is computed, and CompleteAt is scheduled. Loads perform
// their forwarding scan and cache access here — wrong-path fills included.
// Returns false if the instruction must replay (store-to-load conflict not
// yet forwardable).
func (c *Core) execute(e *Entry) bool {
	inst := e.Inst
	lat := c.p.execLatency(inst.Op)

	switch {
	case isa.IsALU(inst.Op):
		a := c.readP(e.Src1P)
		if inst.Op == isa.OpLui {
			a = 0
		}
		e.Result = isa.EvalALU(inst.Op, a, isa.ALUOperandB(inst, c.readP(e.Src2P)))

	case inst.IsCondBranch():
		e.Taken = isa.EvalBranch(inst.Op, c.readP(e.Src1P), c.readP(e.Src2P))
		if e.Taken {
			e.Target = uint64(inst.Imm)
		} else {
			e.Target = e.PC + isa.InstBytes
		}

	case inst.Op == isa.OpJal:
		e.Result = e.PC + isa.InstBytes
		e.Taken = true
		e.Target = uint64(inst.Imm)

	case inst.Op == isa.OpJalr:
		e.Result = e.PC + isa.InstBytes
		e.Taken = true
		e.Target = (c.readP(e.Src1P) + uint64(inst.Imm)) &^ 1

	case inst.IsLoad():
		return c.executeLoad(e)

	case inst.IsStore():
		e.Addr = c.readP(e.Src1P) + uint64(inst.Imm)
		if c.userMode && !c.mem.UserAccessOK(e.Addr, inst.MemBytes()) {
			e.Fault = isa.FaultKernelStore
		}

	case inst.Op == isa.OpRdcycle:
		e.Result = c.cycle

	case inst.Op == isa.OpRdmsr:
		msr := uint16(inst.Imm)
		if msr >= isa.NumMSR || (c.userMode && isa.PrivilegedMSR(msr)) {
			e.Fault = isa.FaultPrivilegeMSR
			if c.p.MeltdownVulnerable && msr < isa.NumMSR {
				e.Result = c.msr[msr] // the LazyFP/v3a flaw: data flows anyway
			}
		} else {
			e.Result = c.msr[msr]
		}

	case inst.Op == isa.OpWrmsr:
		msr := uint16(inst.Imm)
		if msr >= isa.NumMSR || (c.userMode && isa.PrivilegedMSR(msr)) {
			e.Fault = isa.FaultPrivilegeMSR
		}

	case inst.Op == isa.OpClflush:
		e.Addr = c.readP(e.Src1P) + uint64(inst.Imm)
		c.hier.Flush(e.Addr)
		c.traceChannel(ChanDCacheFlush, e.Addr, 0)

	case inst.Op == isa.OpFence, inst.Op == isa.OpNop, inst.Op == isa.OpHalt,
		inst.Op == isa.OpSpecOff, inst.Op == isa.OpSpecOn:
		// Nothing to compute.
	}

	e.CompleteAt = c.cycle + uint64(lat)
	return true
}

// executeLoad performs address generation, the store-queue scan
// (forwarding, replay, or speculative bypass), the protection check, and
// the cache access.
func (c *Core) executeLoad(e *Entry) bool {
	inst := e.Inst
	e.Addr = c.readP(e.Src1P) + uint64(inst.Imm)
	e.AddrKnown = true
	size := inst.MemBytes()

	// Scan older stores youngest-first. The first address-known overlap
	// decides: full coverage with ready data forwards; anything else
	// replays until the store drains. Address-unknown older stores are
	// speculatively bypassed and recorded.
	var fwd *Entry
	bp := &c.bypassed[e.Slot]
	*bp = (*bp)[:0]
	for i := len(c.sq) - 1; i >= 0; i-- {
		s := c.entryAt(c.sq[i])
		if s.Seq > e.Seq {
			continue
		}
		if !s.Issued || !s.AddrKnown {
			//ndavet:allow alloclint:op the bypass list is bounded by store-queue length, its preallocated capacity
			*bp = append(*bp, s.Slot)
			continue
		}
		ssize := s.Inst.MemBytes()
		if !overlaps(s.Addr, ssize, e.Addr, size) {
			continue
		}
		if covers(s.Addr, ssize, e.Addr, size) && c.pReady(s.Src2P) {
			fwd = s
		} else {
			// Partial overlap or data not yet propagatable: replay.
			*bp = (*bp)[:0]
			e.RetryAt = c.cycle + 2
			c.stats.LoadReplays++
			return false
		}
		break
	}

	e.Node.BypassGuards = len(*bp)
	if len(*bp) > 0 {
		c.stats.BypassedLoads++
	}

	if c.userMode && !c.mem.UserAccessOK(e.Addr, size) {
		e.Fault = isa.FaultKernelLoad
	}

	if fwd != nil {
		c.stats.LoadForwards++
		e.ForwardSeq = fwd.Seq
		val := c.readP(fwd.Src2P) >> (8 * (e.Addr - fwd.Addr))
		e.Result = truncate(val, size)
		e.CompleteAt = c.cycle + uint64(c.p.AGULatency+c.p.ForwardLatency)
	} else {
		var res cache.Result
		invisible := false
		switch c.policy.LoadVisibility {
		case core.InvisibleUntilResolved:
			// InvisiSpec-Spectre: a load is speculative iff some OLDER
			// branch is unresolved — exactly its guard bit, which the
			// policy's GuardBranches keeps.
			invisible = e.Node.UnderGuard
		case core.InvisibleUntilRetire:
			invisible = true
		}
		if invisible {
			res = c.hier.DataNoInstall(e.Addr)
			e.Invisible = true
			e.WasPresent = res.Level == cache.LevelL1
			c.stats.InvisibleLoads++
		} else {
			res = c.hier.Data(e.Addr)
			c.traceChannel(ChanDCacheFill, e.Addr, 0)
		}
		e.Result = truncate(c.mem.Read(e.Addr, size), size)
		e.CompleteAt = c.cycle + uint64(c.p.AGULatency+res.Latency)
		if res.OffChip() {
			e.OffChip = true
			c.offChipLoads++
		}
		e.Inflight = true
	}

	if e.Fault != isa.FaultNone && !c.p.MeltdownVulnerable {
		e.Result = 0 // a fixed core zeroes the faulting load's data
	}
	return true
}

func truncate(v uint64, size int) uint64 {
	switch size {
	case 1:
		return v & 0xFF
	case 4:
		return v & 0xFFFFFFFF
	}
	return v
}
