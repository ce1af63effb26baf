package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/gadget"
	"nda/internal/harness"
	"nda/internal/ooo"
	"nda/internal/workload"
)

// CellRequest is the fleet's unit of work: exactly one simulation cell,
// shipped by a coordinator to a worker as POST /v1/cell and answered with
// the cell's canonical JSON (a harness.Measurement, an attack.Outcome, or
// a gadget.ProgramReport, by kind). It deliberately mirrors the result
// cache's cell keys — a cell's response is a pure function of this request
// — which is what makes a fleet-merged table byte-identical to a local
// run: the coordinator assembles the same values into the same slots.
//
// The attack kind carries no ooo.Params: workers simulate attack cells
// under their own configured params, so a fleet must be homogeneous (every
// worker started with the same build and defaults), exactly as a batch
// cluster's array jobs assume a uniform image.
type CellRequest struct {
	Kind string `json:"kind"` // "sweep", "attack", or "gadget"

	// Sweep cells.
	Workload string       `json:"workload,omitempty"`
	InOrder  bool         `json:"in_order,omitempty"`
	Sampling SamplingSpec `json:"sampling,omitempty"`

	// Sweep (when InOrder is false) and attack cells.
	Policy string `json:"policy,omitempty"`

	// Attack cells.
	Attack string `json:"attack,omitempty"`

	// Gadget cells.
	Program string `json:"program,omitempty"`
}

// The cell kinds (CellRequest.Kind). Sweep and attack jobs report their
// cell kind as their job kind.
const (
	kindSweep  = "sweep"
	kindAttack = "attack"
	kindGadget = "gadget"
)

// cell is one unit of cacheable work, built by exactly one constructor per
// kind (sweepCell, matrixCell, censusCell). Those constructors, and the
// CellRequest.cell switch that picks one, are the only code that knows
// what a kind means. Job tasks and POST /v1/cell both build cells through
// them, and Manager.resolve is the one path every cell takes through the
// cache tiers, the fleet, and the counters.
type cell struct {
	key     string                                                      // content address in every cache tier
	req     CellRequest                                                 // ships the cell to a fleet worker
	compute func(ctx context.Context, m *Manager, c *cell) (any, error) // local evaluation on a miss
	decode  func([]byte) (any, error)                                   // inverse of the value's canonical JSON

	// Inputs of the local compute, resolved once at construction.
	spec   workload.Spec
	pol    core.Policy    // zero for in-order and gadget cells
	cfg    harness.Config // sweep cells: the sampling config the cell runs with
	params ooo.Params     // attack cells: the micro-architecture
}

// decodeAs decodes a tier's or a worker's bytes into a fresh *T.
func decodeAs[T any](b []byte) (any, error) {
	v := new(T)
	if err := json.Unmarshal(b, v); err != nil {
		return nil, err
	}
	return v, nil
}

// sweepCellKey describes everything a sweep cell's result depends on. The
// embedded harness.Config carries the full sampling spec and ooo.Params;
// Workers is zeroed before hashing because parallelism must never change
// identity.
type sweepCellKey struct {
	Workload string         `json:"workload"`
	InOrder  bool           `json:"in_order"`
	Policy   core.Policy    `json:"policy"`
	Config   harness.Config `json:"config"`
}

// sweepCell builds one (workload, configuration) cell of the performance
// sweep: pol on the OoO core, or the in-order core when inOrder is set.
// sampling is the spec as the client wrote it (a worker resolves it to the
// identical config); cfg is its resolution.
func sweepCell(spec workload.Spec, pol core.Policy, inOrder bool, sampling SamplingSpec, cfg harness.Config) cell {
	c := cell{
		req:     CellRequest{Kind: kindSweep, Workload: spec.Name, InOrder: inOrder, Sampling: sampling},
		compute: measureWorkload,
		decode:  decodeAs[harness.Measurement],
		spec:    spec,
		pol:     pol,
		cfg:     cfg,
	}
	if !inOrder {
		c.req.Policy = pol.Name
	}
	c.cfg.Workers = 0
	c.key = Key("sweep-cell", sweepCellKey{Workload: spec.Name, InOrder: inOrder, Policy: pol, Config: c.cfg})
	// Cells saturate the pool on their own; per-sample fan-out inside a
	// checkpointed cell stays serial, exactly as in harness.RunSweepCtx.
	c.cfg.Workers = 1
	return c
}

// measureWorkload is a sweep cell's local compute. In checkpoint mode the
// workload's sample series is itself cache-resolved first, so the
// functional fast-forward and checkpoint capture happen once per
// (workload, sampling spec) per process; in fleet mode the series lives and
// is reused on whichever workers simulate that workload's cells.
func measureWorkload(ctx context.Context, m *Manager, c *cell) (any, error) {
	var ss *harness.SampleSeries
	if c.cfg.UseCheckpoints {
		var err error
		if ss, err = m.samples(ctx, c.spec, c.cfg); err != nil {
			return nil, err
		}
	}
	mres, err := harness.MeasureCell(ctx, c.spec, c.pol, c.req.InOrder, c.cfg, ss)
	if err != nil {
		return nil, err
	}
	m.metrics.Simulations.Add(1)
	m.metrics.CyclesSimulated.Add(int64(mres.Cycles))
	return mres, nil
}

// attackCellKey describes one (attack, policy) security-matrix cell.
type attackCellKey struct {
	Attack  attack.Kind `json:"attack"`
	InOrder bool        `json:"in_order"`
	Policy  core.Policy `json:"policy"`
	Params  ooo.Params  `json:"params"`
}

// matrixCell builds one (attack, configuration) cell of the security
// matrix: pol on an OoO core with params, or the in-order core when
// inOrder is set.
func matrixCell(kind attack.Kind, pol core.Policy, inOrder bool, params ooo.Params) cell {
	c := cell{
		key:     Key("attack-cell", attackCellKey{Attack: kind, InOrder: inOrder, Policy: pol, Params: params}),
		req:     CellRequest{Kind: kindAttack, Attack: string(kind), InOrder: inOrder},
		compute: simulatePoC,
		decode:  decodeAs[attack.Outcome],
		pol:     pol,
		params:  params,
	}
	if !inOrder {
		c.req.Policy = pol.Name
	}
	return c
}

// simulatePoC is an attack cell's local compute.
func simulatePoC(ctx context.Context, m *Manager, c *cell) (any, error) {
	out, err := attack.RunCell(ctx, attack.Kind(c.req.Attack), c.pol, c.req.InOrder, c.params)
	if err != nil {
		return nil, err
	}
	m.metrics.Simulations.Add(1)
	m.metrics.CyclesSimulated.Add(int64(out.Cycles))
	return out, nil
}

// gadgetKey identifies one program's static census entry.
type gadgetKey struct {
	Program string `json:"program"`
	Window  int    `json:"window"`
}

// censusCell builds one program's static gadget-census entry. The caller
// has checked that program is a built-in (knownProgram).
func censusCell(program string) cell {
	return cell{
		key:     Key("gadget", gadgetKey{Program: program, Window: gadget.DefaultWindow}),
		req:     CellRequest{Kind: kindGadget, Program: program},
		compute: analyzeProgram,
		decode:  decodeAs[gadget.ProgramReport],
	}
}

// analyzeProgram is a census cell's local compute: static analysis only,
// so it does not count as a simulation.
func analyzeProgram(_ context.Context, _ *Manager, c *cell) (any, error) {
	builtins, err := cachedBuiltins()
	if err != nil {
		return nil, err
	}
	for _, in := range builtins {
		if in.Name == c.req.Program {
			pr := in.Report()
			return &pr, nil
		}
	}
	return nil, fmt.Errorf("serve: unknown program %q", c.req.Program)
}

// cell validates a worker-side request and builds its cell through the
// same constructor a job task uses, so a fleet worker and a local job
// derive the same key and run the same compute for the same tuple. params
// is the worker's attack-matrix micro-architecture.
func (r CellRequest) cell(params ooo.Params) (cell, error) {
	var pol core.Policy
	switch r.Kind {
	case kindSweep:
		spec, err := workload.ByName(r.Workload)
		if err != nil {
			return cell{}, err
		}
		if r.InOrder && r.Policy != "" {
			return cell{}, fmt.Errorf("serve: in-order cell must not name a policy (got %q)", r.Policy)
		}
		if !r.InOrder {
			if pol, err = core.ByName(r.Policy); err != nil {
				return cell{}, err
			}
		}
		return sweepCell(spec, pol, r.InOrder, r.Sampling, r.Sampling.resolve()), nil
	case kindAttack:
		kind, err := attackKind(r.Attack)
		if err != nil {
			return cell{}, err
		}
		if !r.InOrder {
			if pol, err = core.ByName(r.Policy); err != nil {
				return cell{}, err
			}
		}
		return matrixCell(kind, pol, r.InOrder, params), nil
	case kindGadget:
		if !knownProgram(r.Program) {
			return cell{}, fmt.Errorf("serve: unknown program %q", r.Program)
		}
		return censusCell(r.Program), nil
	}
	return cell{}, fmt.Errorf("serve: unknown cell kind %q (want sweep, attack, or gadget)", r.Kind)
}
