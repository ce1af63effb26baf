package attack

import (
	"context"
	"fmt"

	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/par"
)

// Expected encodes the paper's Table 2 security columns: for each attack,
// the set of policies under which the attack still succeeds. Policies not
// listed are expected to block the attack. The integration tests and
// cmd/ndattack verify the simulator reproduces exactly this matrix.
var Expected = map[Kind]map[string]bool{
	// The classic cache-channel Spectre is blocked by every defense.
	SpectreV1Cache: {
		"OoO": true,
	},
	// Branch-target injection and RSB mis-steering use the cache channel,
	// so (like v1) every defense stops them.
	SpectreV2: {
		"OoO": true,
	},
	Ret2spec: {
		"OoO": true,
	},
	// The paper's BTB channel defeats cache-only defenses (InvisiSpec) but
	// no NDA policy: the dependence chain feeding the indirect call never
	// wakes.
	SpectreV1BTB: {
		"OoO":                true,
		"InvisiSpec-Spectre": true,
		"InvisiSpec-Future":  true,
	},
	// Meltdown is a chosen-code attack: steering policies do not apply (no
	// mis-steered branch), so only load restriction — and InvisiSpec's
	// futuristic variant, for the cache channel specifically — stops it.
	Meltdown: {
		"OoO":                true,
		"Permissive":         true,
		"Permissive+BR":      true,
		"Strict":             true,
		"Strict+BR":          true,
		"InvisiSpec-Spectre": true,
	},
	// Speculative store bypass needs Bypass Restriction (or load
	// restriction / InvisiSpec-Future); rows 1 and 3 of Table 2 leave it
	// open.
	SSB: {
		"OoO":                true,
		"Permissive":         true,
		"Strict":             true,
		"InvisiSpec-Spectre": true,
	},
	// The LazyFP/v3a analogue behaves like Meltdown with RDMSR as the
	// load-like access.
	LazyFP: {
		"OoO":                true,
		"Permissive":         true,
		"Permissive+BR":      true,
		"Strict":             true,
		"Strict+BR":          true,
		"InvisiSpec-Spectre": true,
	},
	// The hypothetical GPR attack has no access-phase load, so permissive
	// propagation and load restriction cannot see it; only strict
	// propagation breaks the transmit chain. InvisiSpec hides its cache
	// channel.
	GPRSteering: {
		"OoO":             true,
		"Permissive":      true,
		"Permissive+BR":   true,
		"RestrictedLoads": true,
	},
	// Listing 4 (§8): with the victim's no-speculation window, the attack
	// fails everywhere — there is no wrong path to steer.
	GPRSteeringSpecOff: {},
}

// Cell is one (attack, policy) evaluation.
type Cell struct {
	Attack   Kind
	Policy   string
	Outcome  *Outcome
	Expected bool
}

// Matches reports whether the measured verdict equals the paper's.
func (c Cell) Matches() bool { return c.Outcome.Leaked == c.Expected }

// Cell places the outcome in the matrix: its (attack, policy) slot paired
// with Table 2's expected verdict. The in-order core has no Expected entry,
// so its cells expect the attack to be blocked.
func (o *Outcome) Cell() Cell {
	return Cell{Attack: o.Attack, Policy: o.Policy, Outcome: o, Expected: Expected[o.Attack][o.Policy]}
}

// RunCell runs one matrix cell's PoC: on the in-order core when inOrder is
// set (pol is then ignored), otherwise on an OoO core under pol.
func RunCell(ctx context.Context, kind Kind, pol core.Policy, inOrder bool, params ooo.Params) (*Outcome, error) {
	if inOrder {
		return RunInOrderCtx(ctx, kind)
	}
	return RunCtx(ctx, kind, pol, params)
}

// MatrixCtx runs every attack under every policy (plus the in-order core)
// and returns the full grid — the dynamic reproduction of Table 2's
// security columns and Table 1's "demonstrated" checkmarks — on up to
// workers goroutines (0 = one per CPU). Every (attack, policy) PoC builds
// its own program, memory image, and core, and each verdict lands in the
// slot its tuple indexes, so the returned grid is identical — in content
// and order — for any worker count. Once ctx is done, no queued cell
// starts and in-flight PoCs stop mid-simulation; the ctx error is returned
// unless a cell failed first.
func MatrixCtx(ctx context.Context, params ooo.Params, workers int) ([]Cell, error) {
	kinds := All()
	pols := core.All()
	perKind := len(pols) + 1 // every policy, then the in-order core
	cells := make([]Cell, len(kinds)*perKind)
	err := par.RunCtx(ctx, len(cells), workers, func(i int) error {
		pi := i % perKind
		inOrder := pi == len(pols)
		var pol core.Policy
		if !inOrder {
			pol = pols[pi]
		}
		out, err := RunCell(ctx, kinds[i/perKind], pol, inOrder, params)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("matrix: %w", err)
		}
		cells[i] = out.Cell()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}
