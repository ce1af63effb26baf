package ooo

import (
	"fmt"

	"nda/internal/core"
	"nda/internal/isa"
)

// The propagation sanitizer is a per-cycle oracle for the NDA invariant the
// whole defense rests on (paper §5): a value produced by an instruction that
// is unsafe under the active policy must not wake or feed any consumer until
// the instruction becomes safe and its tag is broadcast. The checks run over
// architecturally visible simulator state only — they recompute nothing from
// the policy's internals beyond core.Policy.Unsafe — so a bug in either the
// pipeline's broadcast plumbing or the policy bookkeeping trips them. The
// other checks hold the cycle loop's incremental bookkeeping to the
// full-ROB scans it replaced.
//
// Enabled by Params.Sanitize; off by default because the checks cost a ROB
// scan per cycle. cmd/ndalint's cross-validation tests and the workload
// sanity tests run with it on.
//
// Checks, at the end of every cycle:
//
//  1. ready-without-broadcast: no in-flight producer's destination physical
//     register is marked ready before the producer's tag broadcast. The
//     broadcast is the single point NDA defers, so a ready bit appearing any
//     other way is a propagation leak.
//  2. unsafe-broadcast: no instruction whose tag broadcast happened this
//     cycle is still unsafe under the policy at end of cycle. Guards only
//     resolve (never un-resolve) and bypass guards only drop within a
//     cycle, so an end-of-cycle unsafe verdict proves the broadcast-time
//     one.
//  3. issued-before-broadcast: no instruction that entered execution this
//     cycle has an in-flight older producer (for any of its source
//     operands; store data is read at forwarding/commit time, not issue)
//     whose tag has not been broadcast.
//  4. forward-before-broadcast: no load that entered execution this cycle
//     took its value from an in-flight store whose DATA producer has not
//     broadcast. Store-to-load forwarding is the one dataflow edge that
//     does not go through a register read at issue, so check 3 cannot see
//     it; an unbroadcast value reaching a younger load through the store
//     queue is exactly the memory-laundering propagation leak.
//  5. guard-frontier: every in-flight UnderGuard bit, maintained
//     incrementally by clearGuards and dispatch, equals a fresh
//     core.Policy.RecomputeGuards walk over the ROB.
//  6. exec-set: the executing set equals the full-ROB scan for issued,
//     not yet completed entries, in age order.
//  7. unexposed-safe-load: under InvisiSpec-Spectre no completed, unguarded
//     invisible load is left unexposed at the end of a cycle; exposures
//     happen in the cycle a load leaves the speculative shadow.
//  8. ready-set: the wakeup scheduler matches a fresh scan of the issue
//     queue. Each entry's waiting count equals its counted sources that
//     have not broadcast, the ready set holds exactly the in-queue entries
//     with none, and each register's waiter set holds exactly the
//     in-queue entries counting it as unready.
//  9. bcast-set: the pending-broadcast set equals the full-ROB scan for
//     completed register writers that have not broadcast, in age order.
// 10. fence-frontier: fencesInFlight and fenceSeq equal the full-ROB scan's
//     count and oldest Seq of un-completed FENCEs.

// Violation is one sanitizer finding.
type Violation struct {
	Cycle  uint64
	Check  string
	PC     uint64
	Seq    uint64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s at pc=%#x seq=%d: %s", v.Cycle, v.Check, v.PC, v.Seq, v.Detail)
}

// maxSanitizerLog bounds the retained violation records; the count is exact.
const maxSanitizerLog = 32

// SanitizerViolations returns how many invariant violations the sanitizer
// observed (0 when Params.Sanitize is off).
func (c *Core) SanitizerViolations() uint64 { return c.sanCount }

// SanitizerLog returns up to maxSanitizerLog retained violations.
func (c *Core) SanitizerLog() []Violation { return c.sanLog }

func (c *Core) sanViolate(check string, pc, seq uint64, format string, args ...any) {
	c.sanCount++
	if len(c.sanLog) < maxSanitizerLog {
		//ndavet:allow alloclint:op sanitizer log append; runs only with Params.Sanitize set, and measured windows run with it off
		c.sanLog = append(c.sanLog, Violation{
			Cycle: c.cycle, Check: check, PC: pc, Seq: seq,
			//ndavet:allow alloclint:call sanitizer detail formatting; measured windows run with the sanitizer off
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// checkInvariants runs the checks over the ROB. Called at the end of Step
// (both the halted early-exit and the normal path).
func (c *Core) checkInvariants() {
	if !c.p.Sanitize {
		return
	}
	c.sanCheckGuards()
	c.sanCheckExec()
	c.sanCheckBcast()
	c.sanCheckReady()
	c.sanCheckFences()

	// Pass 1: per-producer checks, and index the in-flight writer of every
	// destination physical register (unique: the free list hands each preg
	// to at most one in-flight instruction).
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		if e.DestP == noPReg {
			continue
		}
		c.sanWriterMark[e.DestP] = c.cycle
		c.sanWriterSeq[e.DestP] = e.Seq
		c.sanWriterBcast[e.DestP] = e.Node.Broadcast
		if !e.Node.Broadcast && c.regReady[e.DestP] {
			c.sanViolate("ready-without-broadcast", e.PC, e.Seq,
				"p%d is ready but %v has not broadcast (completed=%v)",
				e.DestP, e.Inst, e.Node.Completed)
		}
		if e.Node.Broadcast && e.BcastCycle == c.cycle &&
			c.policy.Unsafe(&e.Node, c.atHead(e)) {
			c.sanViolate("unsafe-broadcast", e.PC, e.Seq,
				"%v broadcast this cycle while unsafe under %s (underGuard=%v bypassGuards=%d class=%d)",
				e.Inst, c.policy.Name, e.Node.UnderGuard, e.Node.BypassGuards, e.Node.Class)
		}
	}

	// Pass 2: consumers that entered execution this cycle.
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		if !e.Issued || e.IssuedAt != c.cycle {
			continue
		}
		c.sanCheckSource(e, e.Src1P)
		if !e.Inst.IsStore() {
			c.sanCheckSource(e, e.Src2P)
		}
		if e.Inst.IsLoad() && e.ForwardSeq != 0 {
			c.sanCheckForward(e)
		}
	}
}

// sanCheckGuards applies checks 5 and 7: it runs the full resolve-walk on
// copies of the in-flight nodes, their guard bits cleared first, and
// compares; then it looks for a safe load still awaiting exposure.
func (c *Core) sanCheckGuards() {
	nodes, ptrs := c.sanNodes[:c.robLen], c.sanNodePtrs[:c.robLen]
	for i := range nodes {
		nodes[i] = c.robAt(i).Node
		nodes[i].UnderGuard = false
		ptrs[i] = &nodes[i]
	}
	c.policy.RecomputeGuards(ptrs)
	for i := range nodes {
		e := c.robAt(i)
		if e.Node.UnderGuard != nodes[i].UnderGuard {
			c.sanViolate("guard-frontier", e.PC, e.Seq,
				"%v has underGuard=%v, the resolve-walk gives %v", e.Inst, e.Node.UnderGuard, nodes[i].UnderGuard)
		}
		if c.policy.LoadVisibility == core.InvisibleUntilResolved &&
			e.Invisible && !e.Exposed && e.Node.Completed && !nodes[i].UnderGuard {
			c.sanViolate("unexposed-safe-load", e.PC, e.Seq,
				"%v completed and left the speculative shadow but its line was not exposed", e.Inst)
		}
	}
}

// sanCheckExec applies check 6.
func (c *Core) sanCheckExec() {
	k := 0
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		if !e.Issued || e.Node.Completed {
			continue
		}
		if k >= len(c.exec) || c.exec[k] != e.Slot {
			c.sanViolate("exec-set", e.PC, e.Seq,
				"%v is executing but is not entry %d of the executing set %v", e.Inst, k, c.exec)
			return
		}
		k++
	}
	if k != len(c.exec) {
		c.sanViolate("exec-set", 0, 0, "executing set %v holds %d entries the ROB does not", c.exec, len(c.exec)-k)
	}
}

// sanCheckBcast applies check 9.
func (c *Core) sanCheckBcast() {
	k := 0
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		if e.DestP == noPReg || !e.Node.Completed || e.Node.Broadcast {
			continue
		}
		if k >= len(c.bcast) || c.bcast[k] != e.Slot {
			c.sanViolate("bcast-set", e.PC, e.Seq,
				"%v awaits broadcast but is not entry %d of the pending-broadcast set %v", e.Inst, k, c.bcast)
			return
		}
		k++
	}
	if k != len(c.bcast) {
		c.sanViolate("bcast-set", 0, 0, "pending-broadcast set %v holds %d entries the ROB does not", c.bcast, len(c.bcast)-k)
	}
}

// sanCheckFences applies check 10.
func (c *Core) sanCheckFences() {
	n, oldest := 0, uint64(0)
	for i := 0; i < c.robLen; i++ {
		if e := c.robAt(i); e.Inst.Op == isa.OpFence && !e.Node.Completed {
			if n == 0 {
				oldest = e.Seq
			}
			n++
		}
	}
	if n != c.fencesInFlight || (n > 0 && oldest != c.fenceSeq) {
		c.sanViolate("fence-frontier", 0, oldest, "%d un-completed FENCEs, oldest seq %d; the frontier says %d, oldest seq %d",
			n, oldest, c.fencesInFlight, c.fenceSeq)
	}
}

// sanCheckReady applies check 8 entry by entry, then counts: with every
// expected ready and waiter bit present, equal totals mean no stray ones.
// An unready source register is always the destination of an in-flight
// producer (the consumer is younger, so it cannot outlive a squashed one),
// so only those registers' waiter sets are counted. A stray bit on a free
// register is counted once the register is renamed again.
func (c *Core) sanCheckReady() {
	ready, waits, held := 0, 0, 0
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		unready := 0
		if e.InIQ {
			unready = c.sanWaitsOn(e, e.Src1P)
			if !e.Inst.IsStore() && e.Src2P != e.Src1P {
				unready += c.sanWaitsOn(e, e.Src2P)
			}
		}
		if int(e.waiting) != unready {
			c.sanViolate("ready-set", e.PC, e.Seq, "%v waits on %d sources, %d have not broadcast", e.Inst, e.waiting, unready)
		}
		want := e.InIQ && unready == 0
		if c.ready.has(e.Slot) != want {
			c.sanViolate("ready-set", e.PC, e.Seq, "%v has ready bit %v, want %v", e.Inst, !want, want)
		}
		if want {
			ready++
		}
		waits += unready
		if e.DestP != noPReg {
			held += c.waitersOf(e.DestP).count()
		}
	}
	if n := c.ready.count(); n != ready {
		c.sanViolate("ready-set", 0, 0, "ready set holds %d slots, the issue queue has %d ready entries", n, ready)
	}
	if held != waits {
		c.sanViolate("ready-set", 0, 0, "in-flight registers' waiter sets hold %d bits, the issue queue waits on %d sources", held, waits)
	}
}

// sanWaitsOn returns 1 if p is an unready source of e, and checks that e is
// in p's waiter set.
func (c *Core) sanWaitsOn(e *Entry, p int) int {
	if p == noPReg || c.regReady[p] {
		return 0
	}
	if !c.waitersOf(p).has(e.Slot) {
		c.sanViolate("ready-set", e.PC, e.Seq, "%v waits on p%d but is not in its waiter set", e.Inst, p)
	}
	return 1
}

// sanCheckForward applies check 4: the load e took its value from the store
// with sequence number e.ForwardSeq this cycle; the store's data operand
// must trace to a broadcast (or retired) producer.
func (c *Core) sanCheckForward(e *Entry) {
	for i := 0; i < c.robLen; i++ {
		s := c.robAt(i)
		if s.Seq != e.ForwardSeq {
			continue
		}
		if src := s.Src2P; src != noPReg && c.sanWriterMark[src] == c.cycle &&
			c.sanWriterSeq[src] < s.Seq && !c.sanWriterBcast[src] {
			c.sanViolate("forward-before-broadcast", e.PC, e.Seq,
				"%v forwarded from store seq %d whose data producer (seq %d, p%d) has not broadcast",
				e.Inst, s.Seq, c.sanWriterSeq[src], src)
		}
		return
	}
}

func (c *Core) sanCheckSource(e *Entry, src int) {
	if src == noPReg {
		return
	}
	if c.sanWriterMark[src] != c.cycle {
		return // producer already retired: broadcast long done
	}
	if c.sanWriterSeq[src] < e.Seq && !c.sanWriterBcast[src] {
		c.sanViolate("issued-before-broadcast", e.PC, e.Seq,
			"%v issued reading p%d before its producer (seq %d) broadcast",
			e.Inst, src, c.sanWriterSeq[src])
	}
}
