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
// frontier and executing set must match their full-ROB oracles every cycle.
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

// TestSanitizerCatchesStaleBookkeeping is the negative oracle for checks 5
// and 6: a guard bit left set after its guard resolved, and an executing
// entry missing from the executing set, must both be flagged.
func TestSanitizerCatchesStaleBookkeeping(t *testing.T) {
	prog, err := asm.Assemble(`
main:   li   t0, 64
loop:   addi t0, t0, -1
        ld   t1, 0(t0)
        add  t2, t2, t1
        bne  t0, zero, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	c := NewFromProgram(prog, core.Permissive(), params)
	var sawGuard, sawExec bool
	for cycles := 0; cycles < 10000 && !c.halted && !(sawGuard && sawExec); cycles++ {
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
		c.sanCount, c.sanLog = 0, nil
	}
	if !sawGuard || !sawExec {
		t.Fatalf("never observed an unguarded entry (%v) or an executing one (%v)", sawGuard, sawExec)
	}
}

// wantFlag runs the end-of-cycle checks and requires a violation of check.
func wantFlag(t *testing.T, c *Core, check string) {
	t.Helper()
	before := c.sanCount
	c.checkInvariants()
	if c.sanCount == before {
		t.Fatalf("sanitizer missed a forced %s violation", check)
	}
	if got := c.sanLog[len(c.sanLog)-1].Check; got != check {
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
			before := c.sanCount
			c.regReady[e.DestP] = true // the injected plumbing bug
			c.checkInvariants()
			c.regReady[e.DestP] = false
			if c.sanCount == before {
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
