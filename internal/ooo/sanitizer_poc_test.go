package ooo_test

import (
	"context"
	"testing"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/ooo"
)

// TestSanitizerCleanOnAttackPoCs runs every Table 2 PoC under every policy
// with the sanitizer on. The PoCs are squash- and wrong-path-heavy, so they
// drive the incremental guard frontier and the executing set through the
// mispredicts, faults and order violations the SPEC proxies rarely hit;
// every cycle must still agree with the full-ROB oracles.
func TestSanitizerCleanOnAttackPoCs(t *testing.T) {
	params := ooo.DefaultParams()
	params.Sanitize = true
	for _, kind := range attack.All() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			for _, pol := range core.All() {
				out, err := attack.RunCtx(context.Background(), kind, pol, params)
				if err != nil {
					t.Fatalf("%s: %v", pol.Name, err)
				}
				if out.SanitizerViolations != 0 {
					t.Errorf("%d sanitizer violations under %s", out.SanitizerViolations, pol.Name)
				}
			}
		})
	}
}
