package ooo

import (
	"fmt"

	"nda/internal/core"
	"nda/internal/isa"
)

// The propagation sanitizer is an oracle for the NDA invariant the whole
// defense rests on (paper §5): a value produced by an instruction that is
// unsafe under the active policy must not wake or feed any consumer until
// the instruction becomes safe and its tag is broadcast. The checks run over
// architecturally visible simulator state only — they recompute nothing from
// the policy's internals beyond core.Policy.Unsafe — so a bug in either the
// pipeline's broadcast plumbing or the policy bookkeeping trips them. The
// other checks hold the cycle loop's incremental bookkeeping to the
// full-ROB scans it replaced.
//
// New installs it only when the parameters ask for it (see Params); the
// cross-validation tests and the differential fuzzer run with it on.
//
// Checks, every simulated cycle:
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
//     queue. Each entry's waiting count equals its counted sources whose
//     in-flight producer has not broadcast, the ready set holds exactly the
//     in-queue entries with none, and each register's waiter set holds
//     exactly the in-queue entries counting it as unready.
//  9. bcast-set: the pending-broadcast set equals the full-ROB scan for
//     completed register writers that have not broadcast, in age order.
// 10. fence-frontier: fencesInFlight and fenceSeq equal the full-ROB scan's
//     count and oldest Seq of un-completed FENCEs.
//
// Checks 5 and 7 run the resolve-walk on copies of the in-flight nodes;
// every other check runs in one age-ordered ROB walk. Producers and stores
// are older than their consumers and forwarding loads, so by the time the
// walk reaches an entry it has indexed every register writer and store the
// entry's checks need.
//
// Run and RunInsts jump over dead cycles here as everywhere else, and the
// checks lose nothing by it. skipTo changes only the clock and the bulk
// stall counters, which no check reads. The checks keyed on the clock
// (BcastCycle for check 2, IssuedAt for checks 3 and 4) cannot fire on a
// cycle without progress, because a broadcast or an issue is progress.
// Every other check is a function of state that a skipped cycle does not
// change, so it would repeat the verdict of the stepped cycle before the
// jump. TestRunMatchesPerCycleStepping holds a sanitized Run to sanitized
// per-cycle stepping.

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

// sanitizer holds the findings and the scratch of the checks.
type sanitizer struct {
	count uint64
	log   []Violation

	// The writer index, rebuilt by every walk: mark[p] == gen iff an entry
	// the walk has visited writes physical register p (unique: the free
	// list hands each register to at most one in-flight instruction), and
	// seq[p] and bcast[p] are that writer's Seq and broadcast bit.
	gen   uint64
	mark  []uint64
	seq   []uint64
	bcast []bool
	// stores is scratch for the ROB slots of the stores the walk has
	// visited.
	stores []int32
	// nodes are the resolve-walk's copies of the in-flight nodes.
	nodes []core.Node
	ptrs  []*core.Node
}

func newSanitizer(p Params) *sanitizer {
	return &sanitizer{
		mark:   make([]uint64, p.PhysRegs),
		seq:    make([]uint64, p.PhysRegs),
		bcast:  make([]bool, p.PhysRegs),
		stores: make([]int32, p.ROBSize),
		nodes:  make([]core.Node, p.ROBSize),
		ptrs:   make([]*core.Node, p.ROBSize),
	}
}

// SanitizerViolations returns how many invariant violations the sanitizer
// observed (0 when it is off).
func (c *Core) SanitizerViolations() uint64 {
	if c.san == nil {
		return 0
	}
	return c.san.count
}

// SanitizerLog returns up to maxSanitizerLog retained violations.
func (c *Core) SanitizerLog() []Violation {
	if c.san == nil {
		return nil
	}
	return c.san.log
}

func (s *sanitizer) violate(c *Core, check string, pc, seq uint64, format string, args ...any) {
	s.count++
	if len(s.log) < maxSanitizerLog {
		//ndavet:allow alloclint:op sanitizer log append; the sanitizer is off in measured windows
		s.log = append(s.log, Violation{
			Cycle: c.cycle, Check: check, PC: pc, Seq: seq,
			//ndavet:allow alloclint:call sanitizer detail formatting; the sanitizer is off in measured windows
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// check runs every check over the end-of-cycle state. Step calls it once
// per simulated cycle, the halting one included.
func (s *sanitizer) check(c *Core) {
	s.checkGuards(c)

	s.gen++
	stores := 0         // s.stores[:stores] are the stores visited so far
	exec, bcast := 0, 0 // set entries matched so far; -1 after a mismatch
	fences, oldestFence := 0, uint64(0)
	ready, waits, held := 0, 0, 0
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)

		// Checks 3 and 4.
		if e.Issued && e.IssuedAt == c.cycle {
			s.checkSource(c, e, e.Src1P)
			if !e.Inst.IsStore() {
				s.checkSource(c, e, e.Src2P)
			}
			if e.Inst.IsLoad() && e.ForwardSeq != 0 {
				s.checkForward(c, e, s.stores[:stores])
			}
		}

		// Check 8, entry by entry.
		unready := 0
		if e.InIQ {
			unready = s.waitsOn(c, e, e.Src1P)
			if !e.Inst.IsStore() && e.Src2P != e.Src1P {
				unready += s.waitsOn(c, e, e.Src2P)
			}
		}
		if int(e.waiting) != unready {
			s.violate(c, "ready-set", e.PC, e.Seq, "%v waits on %d sources, %d have not broadcast", e.Inst, e.waiting, unready)
		}
		want := e.InIQ && unready == 0
		if c.ready.has(e.Slot) != want {
			s.violate(c, "ready-set", e.PC, e.Seq, "%v has ready bit %v, want %v", e.Inst, !want, want)
		}
		if want {
			ready++
		}
		waits += unready

		// Checks 6, 9 and 10.
		if e.Issued && !e.Node.Completed {
			s.matchSet(c, &exec, c.exec, e, "exec-set", "is executing", "executing")
		}
		if e.DestP != noPReg && e.Node.Completed && !e.Node.Broadcast {
			s.matchSet(c, &bcast, c.bcast, e, "bcast-set", "awaits broadcast", "pending-broadcast")
		}
		if e.Inst.Op == isa.OpFence && !e.Node.Completed {
			if fences == 0 {
				oldestFence = e.Seq
			}
			fences++
		}

		if e.Inst.IsStore() {
			s.stores[stores] = e.Slot
			stores++
		}
		if e.DestP == noPReg {
			continue
		}
		// Checks 1 and 2, then index e as its register's writer.
		if !e.Node.Broadcast && c.regReady[e.DestP] {
			s.violate(c, "ready-without-broadcast", e.PC, e.Seq,
				"p%d is ready but %v has not broadcast (completed=%v)",
				e.DestP, e.Inst, e.Node.Completed)
		}
		if e.Node.Broadcast && e.BcastCycle == c.cycle &&
			c.policy.Unsafe(&e.Node, i == 0) {
			s.violate(c, "unsafe-broadcast", e.PC, e.Seq,
				"%v broadcast this cycle while unsafe under %s (underGuard=%v bypassGuards=%d class=%d)",
				e.Inst, c.policy.Name, e.Node.UnderGuard, e.Node.BypassGuards, e.Node.Class)
		}
		s.mark[e.DestP], s.seq[e.DestP], s.bcast[e.DestP] = s.gen, e.Seq, e.Node.Broadcast
		held += c.waitersOf(e.DestP).count()
	}

	s.endSet(c, exec, c.exec, "exec-set", "executing")
	s.endSet(c, bcast, c.bcast, "bcast-set", "pending-broadcast")
	// Check 8's totals: with every expected ready and waiter bit present,
	// equal totals mean no stray ones. Only in-flight writers' waiter sets
	// are counted; a stray bit on a free register is counted once the
	// register is renamed again.
	if n := c.ready.count(); n != ready {
		s.violate(c, "ready-set", 0, 0, "ready set holds %d slots, the issue queue has %d ready entries", n, ready)
	}
	if held != waits {
		s.violate(c, "ready-set", 0, 0, "in-flight registers' waiter sets hold %d bits, the issue queue waits on %d sources", held, waits)
	}
	if fences != c.fencesInFlight || (fences > 0 && oldestFence != c.fenceSeq) {
		s.violate(c, "fence-frontier", 0, oldestFence, "%d un-completed FENCEs, oldest seq %d; the frontier says %d, oldest seq %d",
			fences, oldestFence, c.fencesInFlight, c.fenceSeq)
	}
}

// checkGuards applies checks 5 and 7: it runs the full resolve-walk on
// copies of the in-flight nodes, their guard bits cleared first, and
// compares; then it looks for a safe load still awaiting exposure.
func (s *sanitizer) checkGuards(c *Core) {
	nodes, ptrs := s.nodes[:c.robLen], s.ptrs[:c.robLen]
	for i := range nodes {
		nodes[i] = c.robAt(i).Node
		nodes[i].UnderGuard = false
		ptrs[i] = &nodes[i]
	}
	c.policy.RecomputeGuards(ptrs)
	for i := range nodes {
		e := c.robAt(i)
		if e.Node.UnderGuard != nodes[i].UnderGuard {
			s.violate(c, "guard-frontier", e.PC, e.Seq,
				"%v has underGuard=%v, the resolve-walk gives %v", e.Inst, e.Node.UnderGuard, nodes[i].UnderGuard)
		}
		if c.policy.LoadVisibility == core.InvisibleUntilResolved &&
			e.Invisible && !e.Exposed && e.Node.Completed && !nodes[i].UnderGuard {
			s.violate(c, "unexposed-safe-load", e.PC, e.Seq,
				"%v completed and left the speculative shadow but its line was not exposed", e.Inst)
		}
	}
}

// matchSet checks that e, the walk's next member of an age-ordered slot
// set, is entry *k of the set, and advances *k. The first mismatch is
// reported and sets *k to -1, which ends the comparison.
func (s *sanitizer) matchSet(c *Core, k *int, set []int32, e *Entry, check, state, name string) {
	if *k < 0 {
		return
	}
	if *k >= len(set) || set[*k] != e.Slot {
		s.violate(c, check, e.PC, e.Seq, "%v %s but is not entry %d of the %s set %v", e.Inst, state, *k, name, set)
		*k = -1
		return
	}
	*k++
}

// endSet reports set entries left over once the walk matched k of them.
func (s *sanitizer) endSet(c *Core, k int, set []int32, check, name string) {
	if k >= 0 && k != len(set) {
		s.violate(c, check, 0, 0, "%s set %v holds %d entries the ROB does not", name, set, len(set)-k)
	}
}

// unbroadcast reports whether p is written by an entry the walk has
// visited, so an older in-flight one, that has not broadcast.
func (s *sanitizer) unbroadcast(p int) bool {
	return p != noPReg && s.mark[p] == s.gen && !s.bcast[p]
}

// waitsOn returns 1 if p is an unready source of e, and checks that e is
// in p's waiter set.
func (s *sanitizer) waitsOn(c *Core, e *Entry, p int) int {
	if !s.unbroadcast(p) {
		return 0
	}
	if !c.waitersOf(p).has(e.Slot) {
		s.violate(c, "ready-set", e.PC, e.Seq, "%v waits on p%d but is not in its waiter set", e.Inst, p)
	}
	return 1
}

// checkSource applies check 3 to one source of e.
func (s *sanitizer) checkSource(c *Core, e *Entry, src int) {
	if s.unbroadcast(src) {
		s.violate(c, "issued-before-broadcast", e.PC, e.Seq,
			"%v issued reading p%d before its producer (seq %d) broadcast",
			e.Inst, src, s.seq[src])
	}
}

// checkForward applies check 4: the load e took its value from the store
// with sequence number e.ForwardSeq this cycle, one of the older stores;
// the store's data operand must trace to a broadcast (or retired) producer.
func (s *sanitizer) checkForward(c *Core, e *Entry, stores []int32) {
	for i := len(stores) - 1; i >= 0; i-- {
		st := c.entryAt(stores[i])
		if st.Seq != e.ForwardSeq {
			continue
		}
		if src := st.Src2P; s.unbroadcast(src) {
			s.violate(c, "forward-before-broadcast", e.PC, e.Seq,
				"%v forwarded from store seq %d whose data producer (seq %d, p%d) has not broadcast",
				e.Inst, st.Seq, s.seq[src], src)
		}
		return
	}
}
