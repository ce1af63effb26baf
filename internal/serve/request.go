package serve

import (
	"fmt"
	"slices"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/gadget"
	"nda/internal/harness"
	"nda/internal/ooo"
	"nda/internal/workload"
)

// SamplingSpec selects the SMARTS methodology for a sweep request. The
// zero value means the standard methodology (harness.DefaultConfig); Quick
// switches to the reduced smoke-run methodology; any explicitly non-zero
// window overrides the corresponding field. The resolved harness.Config —
// not the spec as written — is what the cache key hashes, so a request
// that spells out the default values verbatim hits the same cache entries
// as one that leaves them blank.
type SamplingSpec struct {
	Quick            bool   `json:"quick,omitempty"`
	Checkpoints      bool   `json:"checkpoints,omitempty"`
	CheckpointStride uint64 `json:"checkpoint_stride,omitempty"`
	WarmInsts        uint64 `json:"warm_insts,omitempty"`
	MeasureInsts     uint64 `json:"measure_insts,omitempty"`
	SkipInsts        uint64 `json:"skip_insts,omitempty"`
	Intervals        int    `json:"intervals,omitempty"`
	MaxCycles        uint64 `json:"max_cycles,omitempty"`
}

// resolve maps the spec onto a concrete harness.Config. Workers stays 0 —
// parallelism is the manager's concern and must never reach a cache key.
func (s SamplingSpec) resolve() harness.Config {
	cfg := harness.DefaultConfig()
	if s.Quick {
		cfg = harness.Quick()
	}
	cfg.UseCheckpoints = s.Checkpoints
	if s.CheckpointStride > 0 {
		cfg.CheckpointStride = s.CheckpointStride
	}
	if s.WarmInsts > 0 {
		cfg.WarmInsts = s.WarmInsts
	}
	if s.MeasureInsts > 0 {
		cfg.MeasureInsts = s.MeasureInsts
	}
	if s.SkipInsts > 0 {
		cfg.SkipInsts = s.SkipInsts
	}
	if s.Intervals > 0 {
		cfg.Intervals = s.Intervals
	}
	if s.MaxCycles > 0 {
		cfg.MaxCycles = s.MaxCycles
	}
	return cfg
}

// SweepRequest asks for the paper's performance sweep: every listed
// workload measured under every listed policy (plus the in-order bound
// unless disabled). Empty lists mean "all".
type SweepRequest struct {
	Workloads []string     `json:"workloads,omitempty"` // empty = all 23 SPEC proxies
	Policies  []string     `json:"policies,omitempty"`  // empty = all configurations
	NoInOrder bool         `json:"no_in_order,omitempty"`
	Sampling  SamplingSpec `json:"sampling,omitempty"`
}

// task validates the request and decomposes it into its cells, ordered
// workload-major as in harness.RunSweepCtx: every policy, then the
// in-order core. Each cell carries the sampling spec as written alongside
// the resolved config: cache keys hash the resolved config, while fleet
// dispatch forwards the spec so workers resolve it to the identical config
// themselves. Sweeps carry their own ooo.Params in the sampling config, so
// the manager's attack-matrix params are unused.
func (r SweepRequest) task(ooo.Params) (*task, error) {
	specs := workload.SPEC()
	if len(r.Workloads) > 0 {
		specs = nil
		for _, name := range r.Workloads {
			s, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	pols, err := policies(r.Policies)
	if err != nil {
		return nil, err
	}
	inOrder := !r.NoInOrder
	if len(specs) == 0 || (len(pols) == 0 && !inOrder) {
		return nil, fmt.Errorf("serve: empty sweep (no workloads or no configurations)")
	}
	cfg := r.Sampling.resolve()
	cells := make([]cell, 0, len(specs)*(len(pols)+1))
	for _, spec := range specs {
		for _, pol := range pols {
			cells = append(cells, sweepCell(spec, pol, false, r.Sampling, cfg))
		}
		if inOrder {
			cells = append(cells, sweepCell(spec, core.Policy{}, true, r.Sampling, cfg))
		}
	}
	return &task{kind: kindSweep, cells: cells, assemble: func(vals []any) any {
		return assembleSweep(specs, pols, inOrder, vals)
	}}, nil
}

// assembleSweep folds resolved sweep cells into the same Sweep table
// harness.RunSweepCtx builds, so served results are interchangeable with
// CLI results.
func assembleSweep(specs []workload.Spec, pols []core.Policy, inOrder bool, vals []any) *SweepResponse {
	var workloads, configs []string
	for _, spec := range specs {
		workloads = append(workloads, spec.Name)
	}
	for _, pol := range pols {
		configs = append(configs, pol.Name)
	}
	if inOrder {
		configs = append(configs, harness.InOrderName)
	}
	sw := harness.NewSweep(workloads, configs)
	for _, v := range vals {
		mres := v.(*harness.Measurement)
		sw.Set(mres.Config, mres.Workload, mres)
	}
	resp := &SweepResponse{Sweep: sw}
	if sw.Baseline(sw.Workloads[0]) != nil {
		resp.Overheads = make(map[string]float64, len(sw.Configs))
		for _, cfgName := range sw.Configs {
			if cfgName == core.Baseline().Name {
				continue
			}
			resp.Overheads[cfgName] = sw.Overhead(cfgName)
		}
	}
	return resp
}

// policies resolves a request's policy names; empty means every
// configuration.
func policies(names []string) ([]core.Policy, error) {
	if len(names) == 0 {
		return core.All(), nil
	}
	pols := make([]core.Policy, 0, len(names))
	for _, name := range names {
		p, err := core.ByName(name)
		if err != nil {
			return nil, err
		}
		pols = append(pols, p)
	}
	return pols, nil
}

// SweepResponse is the sweep result: the full measurement grid plus the
// headline overhead-vs-OoO percentages (Table 2's overhead column) for
// every configuration, when the insecure baseline is part of the request.
type SweepResponse struct {
	Sweep     *harness.Sweep     `json:"sweep"`
	Overheads map[string]float64 `json:"overheads_pct,omitempty"`
}

// AttackRequest asks for (a subset of) the security matrix: every listed
// attack run under every listed policy, plus the in-order core unless
// disabled. Empty lists mean "all" — the full Table 2 reproduction.
type AttackRequest struct {
	Attacks   []string `json:"attacks,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	NoInOrder bool     `json:"no_in_order,omitempty"`
}

// task validates the request and decomposes it into its cells, laid out as
// attack.MatrixCtx lays them out: for each attack, every policy in order,
// then the in-order core. params is the micro-architecture the OoO cells
// run on.
func (r AttackRequest) task(params ooo.Params) (*task, error) {
	kinds := attack.All()
	if len(r.Attacks) > 0 {
		kinds = nil
		for _, name := range r.Attacks {
			k, err := attackKind(name)
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, k)
		}
	}
	pols, err := policies(r.Policies)
	if err != nil {
		return nil, err
	}
	inOrder := !r.NoInOrder
	if len(pols) == 0 && !inOrder {
		return nil, fmt.Errorf("serve: empty attack matrix (no configurations)")
	}
	cells := make([]cell, 0, len(kinds)*(len(pols)+1))
	for _, kind := range kinds {
		for _, pol := range pols {
			cells = append(cells, matrixCell(kind, pol, false, params))
		}
		if inOrder {
			cells = append(cells, matrixCell(kind, core.Policy{}, true, params))
		}
	}
	return &task{kind: kindAttack, cells: cells, assemble: assembleMatrix}, nil
}

// assembleMatrix folds resolved attack cells into the matrix response.
func assembleMatrix(vals []any) any {
	resp := &AttackResponse{Cells: make([]attack.Cell, len(vals))}
	for i, v := range vals {
		resp.Cells[i] = v.(*attack.Outcome).Cell()
		if !resp.Cells[i].Matches() {
			resp.Mismatches++
		}
	}
	return resp
}

// attackKind resolves an attack name.
func attackKind(name string) (attack.Kind, error) {
	for _, k := range attack.All() {
		if k == attack.Kind(name) {
			return k, nil
		}
	}
	return "", fmt.Errorf("serve: unknown attack %q", name)
}

// AttackResponse is the evaluated (attack, policy) grid plus the count of
// verdicts that diverge from the paper's Table 2.
type AttackResponse struct {
	Cells      []attack.Cell `json:"cells"`
	Mismatches int           `json:"mismatches"`
}

// GadgetsRequest asks for the static gadget census over the named built-in
// programs (attack snippets and workload kernels); empty means all.
type GadgetsRequest struct {
	Programs []string `json:"programs,omitempty"`
}

// task validates the request and decomposes it into one census cell per
// program, in request order (all built-ins, in their fixed order, when the
// request names none).
func (r GadgetsRequest) task(ooo.Params) (*task, error) {
	names := r.Programs
	if len(names) == 0 {
		names = builtinNames()
	}
	cells := make([]cell, 0, len(names))
	for _, name := range names {
		if !knownProgram(name) {
			return nil, fmt.Errorf("serve: unknown program %q", name)
		}
		cells = append(cells, censusCell(name))
	}
	return &task{kind: "gadgets", cells: cells, assemble: assembleCensus}, nil
}

// assembleCensus folds resolved census cells into the gadget report.
func assembleCensus(vals []any) any {
	report := &gadget.Report{Window: gadget.DefaultWindow, Programs: make([]gadget.ProgramReport, len(vals))}
	for i, v := range vals {
		report.Programs[i] = *v.(*gadget.ProgramReport)
	}
	return report
}

// builtinNames lists the census programs in their fixed order: attacks in
// Table 1 order, then workloads in Fig. 7 order.
func builtinNames() []string {
	var names []string
	for _, k := range attack.All() {
		names = append(names, string(k))
	}
	for _, s := range workload.All() {
		names = append(names, s.Name)
	}
	return names
}

// knownProgram reports whether name is a census program.
func knownProgram(name string) bool { return slices.Contains(builtinNames(), name) }
