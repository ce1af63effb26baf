package ooo

import (
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/workload"
)

// TestSanitizerCleanOnWorkloads runs every workload kernel under every
// policy with the sanitizer enabled: benign code must never trip the
// propagation invariant ("no consumer issues on a value whose producer was
// unsafe at broadcast-defer time"), whatever the kernel's mix of
// load-dependent loads, branches, and calls, and the incremental guard
// frontier, executing set, wakeup scheduler and pending-broadcast set must
// match their full-ROB oracles every cycle.
func TestSanitizerCleanOnWorkloads(t *testing.T) {
	params := DefaultParams()
	params.Sanitize = true
	for _, s := range workload.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			prog := s.Build(2)
			for _, pol := range core.All() {
				c := NewFromProgram(prog, pol, params)
				if err := c.Run(maxCycles); err != nil {
					t.Fatalf("%s: %v", pol.Name, err)
				}
				if n := c.SanitizerViolations(); n != 0 {
					t.Errorf("%d sanitizer violations under %s", n, pol.Name)
					for _, v := range c.SanitizerLog() {
						t.Log(v)
					}
				}
			}
		})
	}
}

// TestSanitizerCatchesStaleBookkeeping is the negative oracle for checks 5,
// 6, 8 and 9: a guard bit left set after its guard resolved, an executing
// entry missing from the executing set, a ready bit on an entry still
// waiting for an operand, a waiter missing from its register's waiter set,
// and a pending broadcast missing from the pending-broadcast set must all
// be flagged.
func TestSanitizerCatchesStaleBookkeeping(t *testing.T) {
	prog, err := asm.Assemble(`
main:   li   t0, 64
loop:   addi t0, t0, -1
        ld   t1, 0(t0)
        bne  t1, t1, loop
        add  t2, t2, t0
        bne  t0, zero, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	// The add completes while the never-taken branch above it waits for
	// the load, and Strict defers its broadcast until that branch resolves.
	c := NewFromProgram(prog, core.Strict(), params)
	var sawGuard, sawExec, sawReady, sawWaiter, sawBcast bool
	done := func() bool { return sawGuard && sawExec && sawReady && sawWaiter && sawBcast }
	for cycles := 0; cycles < 10000 && !c.halted && !done(); cycles++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.SanitizerViolations() != 0 {
			t.Fatalf("unexpected violations: %v", c.SanitizerLog())
		}
		if !sawGuard {
			for i := 0; i < c.robLen; i++ {
				n := &c.robAt(i).Node
				if n.UnderGuard {
					continue
				}
				n.UnderGuard = true // the injected bookkeeping bug
				wantFlag(t, c, "guard-frontier")
				n.UnderGuard = false
				sawGuard = true
				break
			}
		}
		if !sawExec && len(c.exec) > 0 {
			saved := c.exec
			c.exec = c.exec[1:] // the injected bookkeeping bug
			wantFlag(t, c, "exec-set")
			c.exec = saved
			sawExec = true
		}
		if e := waitingEntry(c); e != nil && !(sawReady && sawWaiter) {
			c.ready.add(e.Slot) // the injected bookkeeping bug: a stale ready bit
			wantFlag(t, c, "ready-set")
			c.ready.remove(e.Slot)
			sawReady = true

			p := e.Src1P
			if p == noPReg || c.regReady[p] {
				p = e.Src2P
			}
			c.waitersOf(p).remove(e.Slot) // the injected bookkeeping bug: a missing waiter
			wantFlag(t, c, "ready-set")
			c.waitersOf(p).add(e.Slot)
			sawWaiter = true
		}
		if !sawBcast && len(c.bcast) > 0 {
			saved := c.bcast
			c.bcast = c.bcast[1:] // the injected bookkeeping bug
			wantFlag(t, c, "bcast-set")
			c.bcast = saved
			sawBcast = true
		}
		c.san.count, c.san.log = 0, nil
	}
	if !done() {
		t.Fatalf("never observed an unguarded entry (%v), an executing one (%v), one waiting for an operand (%v), or a pending broadcast (%v)",
			sawGuard, sawExec, sawReady, sawBcast)
	}
}

// TestSanitizerCatchesStaleFenceFrontier is the negative oracle for check
// 10: a FENCE count or oldest-FENCE sequence number that drifts from the
// ROB must be flagged.
func TestSanitizerCatchesStaleFenceFrontier(t *testing.T) {
	prog, err := asm.Assemble(`
main:   li   t0, 64
loop:   addi t0, t0, -1
        ld   t1, 0(t0)
        fence
        add  t2, t2, t1
        bne  t0, zero, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	c := NewFromProgram(prog, core.Baseline(), params)
	for cycles := 0; cycles < 10000 && !c.halted; cycles++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.SanitizerViolations() != 0 {
			t.Fatalf("unexpected violations: %v", c.SanitizerLog())
		}
		if c.fencesInFlight == 0 {
			continue
		}
		c.fencesInFlight++ // the injected bookkeeping bug: a phantom FENCE
		wantFlag(t, c, "fence-frontier")
		c.fencesInFlight--
		c.fenceSeq++ // the injected bookkeeping bug: a stale frontier
		wantFlag(t, c, "fence-frontier")
		return
	}
	t.Fatal("never observed an un-completed FENCE")
}

// waitingEntry returns an issue-queue entry waiting for an operand's
// broadcast, or nil.
func waitingEntry(c *Core) *Entry {
	for i := 0; i < c.robLen; i++ {
		if e := c.robAt(i); e.InIQ && e.waiting > 0 {
			return e
		}
	}
	return nil
}

// wantFlag runs the end-of-cycle checks and requires a violation of check.
func wantFlag(t *testing.T, c *Core, check string) {
	t.Helper()
	before := c.san.count
	c.san.check(c)
	if c.san.count == before {
		t.Fatalf("sanitizer missed a forced %s violation", check)
	}
	if got := c.san.log[len(c.san.log)-1].Check; got != check {
		t.Fatalf("logged %s, want %s", got, check)
	}
}

// TestSanitizerCatchesForcedLeak is the negative oracle: if a ready bit
// appears on an in-flight producer's destination register before its tag
// broadcast — the exact plumbing bug NDA's deferral exists to rule out —
// the sanitizer must flag it. The test forces that state by hand and runs
// the end-of-cycle checks directly.
func TestSanitizerCatchesForcedLeak(t *testing.T) {
	prog, err := asm.Assemble(`
main:   li   t0, 1
        addi t1, t0, 1
        addi t2, t1, 1
        addi t3, t2, 1
        addi t4, t3, 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	c := NewFromProgram(prog, core.FullProtection(), params)
	for cycles := 0; cycles < 1000 && !c.halted; cycles++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.robLen; i++ {
			e := c.robAt(i)
			if e.DestP == noPReg || e.Node.Broadcast || c.regReady[e.DestP] {
				continue
			}
			before := c.san.count
			c.regReady[e.DestP] = true // the injected plumbing bug
			c.san.check(c)
			c.regReady[e.DestP] = false
			if c.san.count == before {
				t.Fatalf("sanitizer missed forced ready-without-broadcast on p%d (seq %d)", e.DestP, e.Seq)
			}
			log := c.SanitizerLog()
			last := log[len(log)-1]
			if last.Check != "ready-without-broadcast" || last.Seq != e.Seq {
				t.Fatalf("logged %v, want ready-without-broadcast at seq %d", last, e.Seq)
			}
			return
		}
	}
	t.Fatal("never observed an in-flight producer awaiting broadcast")
}
