package ooo

import (
	"errors"
	"fmt"

	"nda/internal/bpred"
	"nda/internal/cache"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/mem"
)

// Core is one out-of-order processor instance executing one program.
type Core struct {
	p      Params
	policy core.Policy

	prog *isa.Program
	mem  *mem.Memory
	hier *cache.Hierarchy
	gsh  *bpred.Gshare
	btb  *bpred.BTB
	ras  *bpred.RAS

	cycle   uint64
	nextSeq uint64

	// Physical register file.
	regVal   []uint64
	regReady []bool
	freeList []int
	rat      [isa.NumGPR]int

	// Reorder buffer: fixed ring.
	rob     []Entry
	robHead int
	robLen  int
	// Per-slot side tables, each carved from one backing array by New:
	// robRAS[slot] is the RAS checkpoint of the entry in that slot (valid
	// under HasRASCkpt), and bypassed[slot] lists the ROB slots of older
	// stores whose addresses were unknown when that load executed, for
	// Bypass Restriction and violation tracking. A bypassed store is older
	// than its load, so a squash that frees the store's slot frees the
	// load's too.
	robRAS   []bpred.RASSnapshot
	bypassed [][]int32

	// The issue queue is a wakeup scheduler over ROB slots. iqLen counts
	// its entries (InIQ). ready holds those whose counted sources have all
	// broadcast; issue walks it in ring order from robHead, which is age
	// order. waiters holds one slotSet per physical register (stride
	// len(ready) words): the issue-queue entries waiting on that register's
	// broadcast. A squash clears the squashed entries' bits, so a reused
	// slot is never woken by its old occupant's producer.
	iqLen   int
	ready   slotSet
	waiters slotSet

	// Load/store queues, in age order: ROB ring slots. Capacity is fixed
	// at construction, so dispatch and squash never allocate.
	lq []int32
	sq []int32

	// Front end. fetchQ is a fixed ring of FetchQSize slots; fqRAS[i] is
	// the RAS checkpoint of fetchQ[i] (valid under hasRASCkpt).
	fetchQ      []fetchSlot
	fqRAS       []bpred.RASSnapshot
	fqHead      int
	fqLen       int
	fetchPC     uint64
	fetchStall  uint64 // fetch idle until this cycle
	fetchWait   bool   // fetch blocked on an unresolved control instruction
	fetchWaitSq uint64 // seq of the instruction fetch waits on
	fetchDead   bool   // fetch ran off the text segment or past a halt; waits for redirect
	noSpec      bool   // SpecOff window active (committed)

	// lastFetchLine caches the line address most recently charged to L1I,
	// so sequential fetch within a line pays the I-cache once.
	lastFetchLine uint64
	// unresolvedBranches counts in-flight ClassBranch entries that have not
	// resolved; used to initialize UnderGuard at dispatch.
	unresolvedBranches int

	msr      [isa.NumMSR]uint64
	userMode bool
	halted   bool

	// Cancel, when non-nil, aborts Run/RunInsts with ErrCancelled shortly
	// after the channel closes (checked every cancelStride cycles). The
	// evaluation drivers wire ctx.Done() here so in-flight simulations stop
	// promptly on timeout or job cancellation.
	Cancel <-chan struct{}

	// TraceRetire, when non-nil, receives a full per-instruction timing
	// record for every committed instruction in program order, a faulting
	// one included (its Fault is set). Package trace renders these into
	// pipeline diagrams, and ndasim -trace prints them.
	TraceRetire func(ev TraceEvent)

	// TraceChannel, when non-nil, receives every attacker-observable
	// microarchitectural state mutation: d-cache installs (demand fills
	// and InvisiSpec exposures), flushes, and BTB updates. InvisiSpec's
	// DataNoInstall accesses are deliberately absent — their whole point
	// is to leave no measurable state. The differential fuzzing harness
	// (internal/diffuzz) hashes this stream for two runs that differ only
	// in planted secret bytes; a hash mismatch is a covert-channel
	// transmission.
	TraceChannel func(ev ChannelEvent)

	retired      uint64
	lastCommit   uint64 // cycle of the last commit (deadlock guard)
	offChipLoads int    // currently outstanding DRAM loads

	// Event-loop bookkeeping. progress is cleared at the top of every Step
	// and set by any stage that changes simulator state; a cycle that ends
	// with it clear is provably identical to the next one except for
	// time-gated events, so Run/RunInsts jump c.cycle to the next event
	// horizon (nextEventCycle) instead of stepping through dead cycles.
	progress bool
	// exec is the executing set: the ROB slots of issued-but-incomplete
	// entries, in age order (capacity ROBSize, fixed at construction).
	// nextCompleteAt is their earliest CompleteAt (may be stale-low after a
	// squash, never stale-high), so completeExecution can skip its walk on
	// cycles with nothing due.
	exec           []int32
	nextCompleteAt uint64
	// guardsClearedFrom is the ROB index (0 = head) of the oldest entry
	// whose UnderGuard bit cleared this cycle, or -1; exposeSafeLoads
	// consumes and resets it.
	guardsClearedFrom int
	// bcast is the pending-broadcast set: the ROB slots of completed
	// register writers awaiting their tag broadcast, in age order
	// (capacity ROBSize). broadcastStage adds the writers it cannot
	// broadcast in their completion cycle; its deferred arbitration and the
	// broadcast-delay event walk the set instead of the ROB.
	bcast []int32
	// fencesInFlight counts un-completed FENCEs in the ROB, and fenceSeq
	// is the oldest one's Seq (valid while the count is nonzero), so
	// olderFencePending is a comparison, not a scan per issue candidate.
	// A FENCE issues only once every older instruction has completed, so
	// FENCEs complete in program order: fenceSeq moves only when the
	// oldest completes, and a squash that removes it removes every
	// younger FENCE too.
	fencesInFlight int
	fenceSeq       uint64
	// lastCancelPoll is the cycle of the most recent Cancel-channel poll;
	// polls trigger on elapsed distance so event jumps cannot starve them.
	lastCancelPoll uint64

	// Reusable scratch buffer (capacity fixed at construction) so the
	// per-cycle stages allocate nothing.
	doneBuf []*Entry

	// commitValidate models InvisiSpec validation: commit is blocked until
	// this cycle while an exposed load validates.
	commitValidate uint64

	// san is the propagation sanitizer (sanitizer.go), or nil when it is
	// off.
	san *sanitizer

	stats Stats
}

// New builds a core executing prog on the given memory image (which must
// already contain the program's data; see emu.Load) under the given policy.
func New(prog *isa.Program, m *mem.Memory, pol core.Policy, p Params) *Core {
	c := &Core{
		p:      p,
		policy: pol,
		prog:   prog,
		mem:    m,
		hier:   cache.NewHierarchy(cache.DefaultHierarchyParams()),
		gsh:    bpred.NewGshare(p.GshareBits),
		btb:    bpred.NewBTB(p.BTBEntries, p.BTBWays),
		ras:    bpred.NewRAS(p.RASEntries),

		regVal:        make([]uint64, p.PhysRegs),
		regReady:      make([]bool, p.PhysRegs),
		freeList:      make([]int, 0, p.PhysRegs),
		rob:           make([]Entry, p.ROBSize),
		bypassed:      make([][]int32, p.ROBSize),
		ready:         newSlotSet(p.ROBSize),
		lq:            make([]int32, 0, p.LQSize),
		sq:            make([]int32, 0, p.SQSize),
		fetchQ:        make([]fetchSlot, p.FetchQSize),
		fetchPC:       prog.Entry,
		lastFetchLine: ^uint64(0),
		userMode:      true,
		nextSeq:       1,
		exec:          make([]int32, 0, p.ROBSize),
		bcast:         make([]int32, 0, p.ROBSize),
		doneBuf:       make([]*Entry, 0, p.ROBSize),

		guardsClearedFrom: -1,
	}
	c.waiters = make(slotSet, p.PhysRegs*len(c.ready))
	snaps := c.ras.Snapshots(p.ROBSize + p.FetchQSize)
	c.robRAS, c.fqRAS = snaps[:p.ROBSize], snaps[p.ROBSize:]
	// A load can bypass at most SQSize stores; each list's capacity ends
	// where the next slot's begins.
	bypassed := make([]int32, p.ROBSize*p.SQSize)
	for i := range c.rob {
		c.rob[i].Slot = int32(i)
		c.rob[i].reset()
		c.bypassed[i] = bypassed[i*p.SQSize : i*p.SQSize : (i+1)*p.SQSize]
	}
	if p.Sanitize {
		c.san = newSanitizer(p)
	}
	// Map arch registers to the first NumGPR physical registers; the rest
	// form the free list.
	for i := 0; i < isa.NumGPR; i++ {
		c.rat[i] = i
		c.regReady[i] = true
	}
	for i := isa.NumGPR; i < p.PhysRegs; i++ {
		c.freeList = append(c.freeList, i)
	}
	return c
}

// NewFromProgram builds a core with a fresh memory initialized from the
// program's data segments.
func NewFromProgram(prog *isa.Program, pol core.Policy, p Params) *Core {
	m := mem.New()
	emu.Load(m, prog)
	return New(prog, m, pol, p)
}

// ringIndex maps the i-th slot after head onto a ring of n slots, for
// 0 <= head, i < n: a conditional wrap instead of a division, since the ROB
// is not a power of two in size.
func ringIndex(head, i, n int) int {
	j := head + i
	if j >= n {
		j -= n
	}
	return j
}

// robAt returns the i-th oldest in-flight entry (0 = head).
func (c *Core) robAt(i int) *Entry {
	return &c.rob[ringIndex(c.robHead, i, len(c.rob))]
}

// robIndex returns e's age position in the ROB (0 = head); the inverse of
// robAt.
func (c *Core) robIndex(e *Entry) int {
	i := int(e.Slot) - c.robHead
	if i < 0 {
		i += len(c.rob)
	}
	return i
}

// entryAt returns the entry in the given ROB ring slot.
func (c *Core) entryAt(slot int32) *Entry {
	return &c.rob[slot]
}

// robAlloc appends a new entry at the tail and returns it.
func (c *Core) robAlloc() *Entry {
	e := c.robAt(c.robLen)
	c.robLen++
	return e
}

// fqAt returns the i-th oldest fetch-queue slot (0 = head).
func (c *Core) fqAt(i int) *fetchSlot {
	return &c.fetchQ[ringIndex(c.fqHead, i, len(c.fetchQ))]
}

// fqPush appends a fresh slot at the fetch queue's tail and returns it with
// its RAS checkpoint buffer.
func (c *Core) fqPush() (*fetchSlot, *bpred.RASSnapshot) {
	k := ringIndex(c.fqHead, c.fqLen, len(c.fetchQ))
	c.fqLen++
	c.fetchQ[k] = fetchSlot{}
	return &c.fetchQ[k], &c.fqRAS[k]
}

// fqPop drops the fetch queue's head slot.
func (c *Core) fqPop() {
	c.fqHead = ringIndex(c.fqHead, 1, len(c.fetchQ))
	c.fqLen--
}

// Cycles returns the number of cycles simulated so far.
func (c *Core) Cycles() uint64 { return c.cycle }

// Retired returns the number of committed instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Halted reports whether a HALT has committed.
func (c *Core) Halted() bool { return c.halted }

// Stats returns the statistics accumulated since the last reset.
func (c *Core) Stats() *Stats { return &c.stats }

// Hierarchy exposes the cache hierarchy (attack PoCs and tests inspect it).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// BTB exposes the branch target buffer.
func (c *Core) BTB() *bpred.BTB { return c.btb }

// Policy returns the propagation policy the core runs under.
func (c *Core) Policy() core.Policy { return c.policy }

// ResetStats zeroes the statistics counters (end of a warm-up window)
// without disturbing micro-architectural state.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.hier.ResetStats()
}

// Reg returns the committed architectural value of r.
//
// Between commits the rename table also covers in-flight instructions, so
// Reg is intended to be read when the pipeline is drained (halted), as the
// differential tests do.
func (c *Core) Reg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return c.regVal[c.rat[r]]
}

// Regs returns the architectural register file (pipeline should be drained).
func (c *Core) Regs() [isa.NumGPR]uint64 {
	var out [isa.NumGPR]uint64
	for i := range out {
		out[i] = c.Reg(isa.Reg(i))
	}
	return out
}

// MSR returns a model-specific register's committed value.
func (c *Core) MSR(n uint16) uint64 { return c.msr[n] }

// SetMSR plants a value in a model-specific register before the program
// runs; attack PoCs use it to install the privileged secret (the LazyFP /
// Meltdown-v3a scenario, where another context left a secret behind).
func (c *Core) SetMSR(n uint16, v uint64) { c.msr[n] = v }

// Memory returns the memory image the core operates on.
func (c *Core) Memory() *mem.Memory { return c.mem }

// ErrCancelled is returned by Run/RunInsts when the core's Cancel channel
// closes mid-simulation. Callers holding the context that fed the channel
// translate it back into ctx.Err().
var ErrCancelled = errors.New("ooo: simulation cancelled")

// cancelStride is how many cycles may elapse between Cancel-channel polls.
const cancelStride = 1 << 12

// cancelled polls the Cancel channel at most once per cancelStride elapsed
// cycles. The poll triggers on distance since the last poll — not on a cycle
// mask — so event-horizon jumps that skip over every stride-aligned cycle
// still cannot starve cancellation.
func (c *Core) cancelled() bool {
	if c.Cancel == nil || c.cycle-c.lastCancelPoll < cancelStride {
		return false
	}
	c.lastCancelPoll = c.cycle
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// Run simulates until HALT commits or maxCycles elapse, whichever is first.
// Exceeding maxCycles or deadlocking returns an error.
//
// Run is event-driven: after a cycle in which no stage changed any state, it
// jumps c.cycle to the next event horizon (earliest pending completion,
// replay, deferred broadcast, validation end, fetch-queue readiness, or
// fetch-stall expiry) instead of stepping through the dead cycles one by
// one. Statistics, timing, and outputs are byte-identical to per-cycle
// stepping; only wall-clock time changes.
//
//ndavet:hotpath
func (c *Core) Run(maxCycles uint64) error {
	for !c.halted {
		if c.cycle >= maxCycles {
			return fmt.Errorf("ooo: exceeded %d cycles without halting (pc=%#x, rob=%d)", maxCycles, c.fetchPC, c.robLen)
		}
		if c.cancelled() {
			return ErrCancelled
		}
		if err := c.Step(); err != nil {
			return err
		}
		if !c.progress && !c.halted {
			c.skipAhead(maxCycles)
		}
	}
	return nil
}

// RunInsts simulates until at least n more instructions commit, HALT
// commits, or maxCycles elapse. Used by the sampling harness for fixed
// instruction windows. Like Run, it jumps over provably dead cycles.
//
//ndavet:hotpath
func (c *Core) RunInsts(n, maxCycles uint64) error {
	target := c.retired + n
	for !c.halted && c.retired < target {
		if c.cycle >= maxCycles {
			return fmt.Errorf("ooo: exceeded %d cycles with %d/%d instructions committed", maxCycles, c.retired, target)
		}
		if c.cancelled() {
			return ErrCancelled
		}
		if err := c.Step(); err != nil {
			return err
		}
		if !c.progress && !c.halted {
			c.skipAhead(maxCycles)
		}
	}
	return nil
}

// skipAhead advances a quiescent core to just before the next cycle at
// which any stage could act. Called only after a Step that set no progress
// flag: by induction every skipped cycle would have repeated the same
// no-op stage walk and the same commit-stage stall accounting, so the
// bulk-accounted statistics are exactly what per-cycle stepping produces.
//
// The horizon is capped at the deadlock bound (so a genuinely dead core
// still reports its deadlock at the identical cycle) and at maxCycles+1 (so
// a budget overrun leaves c.cycle and the statistics exactly where the
// per-cycle loop would have stopped).
func (c *Core) skipAhead(maxCycles uint64) {
	h := c.nextEventCycle()
	if d := c.lastCommit + c.p.DeadlockCycles + 1; h > d {
		h = d
	}
	if h > maxCycles+1 && maxCycles+1 > maxCycles {
		h = maxCycles + 1
	}
	if h <= c.cycle+1 {
		return
	}
	c.skipTo(h)
}

// skipTo bulk-accounts the dead cycles c.cycle+1 .. h-1 and moves the clock
// to h-1, so the next Step simulates cycle h. The accounting mirrors
// commitStage's zero-commit path: the stall classification cannot change
// while no stage acts, and neither can the outstanding off-chip load count.
func (c *Core) skipTo(h uint64) {
	k := h - 1 - c.cycle
	switch {
	case c.robLen == 0:
		c.stats.FrontendStalls += k
	case c.robAt(0).isMem() && !c.robAt(0).Node.Completed:
		c.stats.MemStallCycles += k
	default:
		c.stats.BackendStalls += k
	}
	c.stats.Cycles += k
	if c.offChipLoads > 0 {
		c.stats.MLPSum += uint64(c.offChipLoads) * k
		c.stats.MLPCycles += k
	}
	c.cycle = h - 1
}

// nextEventCycle returns the earliest future cycle at which a stage of a
// currently quiescent core could act: an execution completing, a replay
// retrying, a deferred broadcast's delay expiring, InvisiSpec validation
// ending, the fetch queue's head reaching dispatch depth, or a fetch stall
// elapsing. Waits with no intrinsic timer (operand readiness, guard
// resolution, resource exhaustion) are all unblocked by one of these, so
// they need no terms of their own. Returns c.cycle+1 if no timed event is
// pending (the deadlock bound in skipAhead still guarantees termination).
func (c *Core) nextEventCycle() uint64 {
	const never = ^uint64(0)
	h := never
	for _, si := range c.exec {
		h = earlierEvent(h, c.cycle, c.rob[si].CompleteAt)
	}
	// Only an operand-ready entry can have replayed.
	for i := c.nextReady(0); i >= 0; i = c.nextReady(i + 1) {
		h = earlierEvent(h, c.cycle, c.robAt(i).RetryAt)
	}
	// A deferred broadcast's SafeSince is at most the current cycle, so
	// only a nonzero delay can put its expiry in the future.
	if c.policy.ExtraBroadcastDelay > 0 {
		for _, si := range c.bcast {
			if e := &c.rob[si]; e.HasSafeSince {
				h = earlierEvent(h, c.cycle, e.SafeSince+uint64(c.policy.ExtraBroadcastDelay))
			}
		}
	}
	if c.commitValidate > c.cycle {
		h = earlierEvent(h, c.cycle, c.commitValidate)
	}
	if c.fqLen > 0 {
		h = earlierEvent(h, c.cycle, c.fqAt(0).readyAt)
	}
	if !c.fetchWait && !c.fetchDead && !c.halted && c.fetchStall > c.cycle {
		h = earlierEvent(h, c.cycle, c.fetchStall)
	}
	if h == never {
		return c.cycle + 1
	}
	return h
}

// earlierEvent folds one candidate into the event horizon: v replaces h
// when it is a strictly future cycle (relative to now) earlier than h.
// A plain function rather than a closure so the skip-ahead scan stays
// allocation-free (a capturing closure would be an alloclint finding).
func earlierEvent(h, now, v uint64) uint64 {
	if v > now && v < h {
		return v
	}
	return h
}

// DebugState renders a one-line pipeline snapshot for diagnostics.
func (c *Core) DebugState() string {
	head := "rob-empty"
	if c.robLen > 0 {
		e := c.robAt(0)
		head = fmt.Sprintf("head{seq=%d pc=%#x %v issued=%v comp=%v}", e.Seq, e.PC, e.Inst, e.Issued, e.Node.Completed)
	}
	fq := "fq-empty"
	if c.fqLen > 0 {
		s := c.fqAt(0)
		fq = fmt.Sprintf("fq[%d]{pc=%#x %v valid=%v ready@%d}", c.fqLen, s.pc, s.inst, s.valid, s.readyAt)
	}
	return fmt.Sprintf("cyc=%d rob=%d iq=%d lq=%d sq=%d fetchPC=%#x wait=%v dead=%v stall>%d validate>%d %s %s",
		c.cycle, c.robLen, c.iqLen, len(c.lq), len(c.sq), c.fetchPC, c.fetchWait, c.fetchDead, c.fetchStall, c.commitValidate, head, fq)
}

// DebugROB lists the in-flight entries (diagnostics).
func (c *Core) DebugROB() string {
	s := ""
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		flag := " "
		if e.Node.Completed {
			flag = "C"
		} else if e.Issued {
			flag = "I"
		}
		s += fmt.Sprintf("  [%3d] seq=%d pc=%#x %s %v\n", i, e.Seq, e.PC, flag, e.Inst)
	}
	return s
}

// NewFromState builds a core resuming from an architectural snapshot:
// registers, MSRs, and the program counter are installed and execution
// starts at pc on the given memory image. Retired counts from zero, so
// instruction-budget runs measure relative progress. Used by the
// checkpoint-based SMARTS sampling path.
func NewFromState(prog *isa.Program, m *mem.Memory, regs [isa.NumGPR]uint64, msrs [isa.NumMSR]uint64, pc uint64, pol core.Policy, p Params) *Core {
	c := New(prog, m, pol, p)
	for i := 1; i < isa.NumGPR; i++ {
		c.regVal[c.rat[i]] = regs[i]
	}
	c.msr = msrs
	c.fetchPC = pc
	return c
}
