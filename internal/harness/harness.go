// Package harness drives the paper's performance evaluation: it runs the
// SPEC CPU 2017 proxy benchmarks on every core configuration with a
// SMARTS-like sampling methodology (warm-up, then alternating measurement
// and skip intervals), aggregates the statistics each figure needs, and
// renders the tables and series of Fig. 7, Table 2/3, and Fig. 9a–e as
// text.
package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/stats"
	"nda/internal/workload"
)

// InOrderName is the configuration label of the in-order baseline.
const InOrderName = "In-Order"

// Config controls the sampling methodology. The defaults mirror the paper's
// SMARTS setup in miniature: warm the micro-architecture, then measure
// fixed instruction windows at intervals and report a CPI confidence
// interval across them.
type Config struct {
	WarmInsts    uint64
	MeasureInsts uint64
	SkipInsts    uint64
	Intervals    int
	MaxCycles    uint64 // per full benchmark run; guards runaway configs

	// UseCheckpoints switches every measurement (MeasureCell, and through
	// it RunSweepCtx and RunFig9eCtx) to checkpoint-based sampling: the
	// emulator fast-forwards between sampling points instead of the timing
	// core simulating the gaps.
	UseCheckpoints bool
	// CheckpointStride is the functional distance between sampling points;
	// 0 means 10x the warm+measure window.
	CheckpointStride uint64

	// Workers bounds the goroutines the sweep engine fans (policy,
	// workload, sample) jobs out over; 0 means one per available CPU.
	// Every job derives its inputs from its tuple alone, so the results
	// are bit-identical for any worker count.
	Workers int

	Params   ooo.Params
	IOParams inorder.Params
}

// DefaultConfig returns the standard methodology: 20k warm-up, 8 intervals
// of 10k measured instructions separated by 10k skipped instructions.
func DefaultConfig() Config {
	return Config{
		WarmInsts:    20_000,
		MeasureInsts: 10_000,
		SkipInsts:    10_000,
		Intervals:    8,
		MaxCycles:    80_000_000,
		Params:       ooo.DefaultParams(),
		IOParams:     inorder.DefaultParams(),
	}
}

// Quick returns a reduced methodology for tests and smoke runs.
func Quick() Config {
	c := DefaultConfig()
	c.WarmInsts = 5_000
	c.MeasureInsts = 4_000
	c.SkipInsts = 2_000
	c.Intervals = 4
	return c
}

// workerCount resolves Config.Workers (0 = one per CPU).
func (c Config) workerCount() int { return par.Workers(c.Workers) }

// Measurement aggregates one (benchmark, configuration) cell.
type Measurement struct {
	Workload string
	Config   string

	CPI stats.Summary // across measurement intervals

	// Aggregates over all measured intervals.
	Cycles    uint64
	Committed uint64
	MLP       float64
	ILP       float64
	D2I       float64 // mean dispatch->issue latency

	// Cycle breakdown fractions (Fig. 9a), of measured cycles.
	CommitFrac, MemFrac, BackendFrac, FrontendFrac float64

	// NDA bookkeeping.
	DeferredPerKilo float64 // deferred broadcasts per 1000 instructions
	MispredictRate  float64
}

// hugeIters makes benchmark loops effectively unbounded; the harness stops
// by instruction budget.
const hugeIters = 1 << 40

// addStats folds one measurement interval into an aggregate. src is a value
// snapshot, never a pointer into a live core: Core.Stats returns the core's
// internal counter block, which keeps mutating as the core runs, so
// aggregating through the alias would tie the fold to simulation timing.
func addStats(dst *ooo.Stats, src ooo.Stats) {
	dst.Cycles += src.Cycles
	dst.Committed += src.Committed
	dst.CommitCycles += src.CommitCycles
	dst.MemStallCycles += src.MemStallCycles
	dst.BackendStalls += src.BackendStalls
	dst.FrontendStalls += src.FrontendStalls
	dst.MLPSum += src.MLPSum
	dst.MLPCycles += src.MLPCycles
	dst.ILPSum += src.ILPSum
	dst.ILPCycles += src.ILPCycles
	dst.DispatchToIssueSum += src.DispatchToIssueSum
	dst.DispatchToIssueCount += src.DispatchToIssueCount
	dst.DeferredBroadcasts += src.DeferredBroadcasts
	dst.DeferralCycles += src.DeferralCycles
	dst.BranchesResolved += src.BranchesResolved
	dst.Mispredicts += src.Mispredicts
}

func fillFromStats(m *Measurement, s *ooo.Stats) {
	m.Cycles, m.Committed = s.Cycles, s.Committed
	m.MLP = s.MLP()
	m.ILP = s.ILP()
	m.D2I = s.DispatchToIssue()
	if s.Cycles > 0 {
		total := float64(s.Cycles)
		m.CommitFrac = float64(s.CommitCycles) / total
		m.MemFrac = float64(s.MemStallCycles) / total
		m.BackendFrac = float64(s.BackendStalls) / total
		m.FrontendFrac = float64(s.FrontendStalls) / total
	}
	if s.Committed > 0 {
		m.DeferredPerKilo = 1000 * float64(s.DeferredBroadcasts) / float64(s.Committed)
	}
	m.MispredictRate = s.MispredictRate()
}

// Sweep is the full evaluation grid: every benchmark under every
// configuration (policies plus optionally the in-order core).
type Sweep struct {
	Workloads []string
	Configs   []string
	Cells     map[string]map[string]*Measurement // config -> workload -> cell
}

// NewSweep returns an empty grid with the given axes. Both the local sweep
// engine and the distributed merge path build their result through this
// and Set, so a fleet-assembled sweep has exactly the shape a local run
// produces.
func NewSweep(workloads, configs []string) *Sweep {
	return &Sweep{
		Workloads: append([]string(nil), workloads...),
		Configs:   append([]string(nil), configs...),
		Cells:     make(map[string]map[string]*Measurement),
	}
}

// Set stores one cell.
func (s *Sweep) Set(config, workload string, m *Measurement) {
	cells := s.Cells[config]
	if cells == nil {
		cells = make(map[string]*Measurement)
		s.Cells[config] = cells
	}
	cells[workload] = m
}

// Get returns one cell (nil if missing).
func (s *Sweep) Get(config, workload string) *Measurement {
	if m, ok := s.Cells[config]; ok {
		return m[workload]
	}
	return nil
}

// Baseline returns the insecure OoO measurement for a workload.
func (s *Sweep) Baseline(workload string) *Measurement {
	return s.Get(core.Baseline().Name, workload)
}

// NormalizedCPI returns config CPI / baseline-OoO CPI for a workload.
func (s *Sweep) NormalizedCPI(config, workload string) float64 {
	base := s.Baseline(workload)
	m := s.Get(config, workload)
	if base == nil || m == nil || base.CPI.Mean == 0 {
		return 0
	}
	return m.CPI.Mean / base.CPI.Mean
}

// MeanNormalizedCPI averages NormalizedCPI over all workloads (the
// rightmost bars of Fig. 7 and the overhead column of Table 2).
func (s *Sweep) MeanNormalizedCPI(config string) float64 {
	var xs []float64
	for _, w := range s.Workloads {
		if v := s.NormalizedCPI(config, w); v > 0 {
			xs = append(xs, v)
		}
	}
	return stats.Mean(xs)
}

// Overhead returns the average slowdown vs insecure OoO in percent.
func (s *Sweep) Overhead(config string) float64 {
	return (s.MeanNormalizedCPI(config) - 1) * 100
}

// cellJob is one (configuration, workload) cell of the sweep matrix.
type cellJob struct {
	pol     core.Policy // unused when inOrder is set
	inOrder bool
	spec    workload.Spec
	specIdx int
}

// MeasureCell measures one (workload, configuration) cell: the in-order
// core when inOrder is set, otherwise pol on the OoO core. It is the
// harness's only measurement entry; the sweep engine, Fig. 9e and the
// serving layer all measure through it.
//
// With cfg.UseCheckpoints set, every sample runs on its own core restored
// from one of ss's checkpoints (ss must be the workload's series; nil
// means take it here). Otherwise one core samples continuously and ss is
// ignored. Both schedules feed the same fold. The cores poll ctx.Done()
// while they run, so cancellation stops the simulation mid-window and
// returns the context's error.
func MeasureCell(ctx context.Context, spec workload.Spec, pol core.Policy, inOrder bool, cfg Config, ss *SampleSeries) (*Measurement, error) {
	m := &Measurement{Workload: spec.Name, Config: pol.Name}
	if inOrder {
		m.Config = InOrderName
	}
	var samples []ooo.Stats
	var err error
	if cfg.UseCheckpoints {
		if ss == nil {
			if ss, err = TakeSamples(spec, cfg); err != nil {
				return nil, err
			}
		}
		samples, err = measureCheckpoints(ctx, ss, pol, inOrder, cfg)
	} else {
		samples = make([]ooo.Stats, cfg.Intervals)
		c := newCellCore(ctx, spec.Build(hugeIters), nil, pol, inOrder, &cfg)
		err = c.sample(&cfg, samples)
	}
	if err != nil {
		// The cores surface cancellation as ErrCancelled; callers want the
		// context.Canceled / DeadlineExceeded identity back.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("harness: %s/%s %w", spec.Name, m.Config, err)
	}
	cpis := make([]float64, len(samples))
	var agg ooo.Stats
	for i := range samples {
		cpis[i] = samples[i].CPI()
		addStats(&agg, samples[i])
	}
	m.CPI = stats.Summarize(cpis)
	fillFromStats(m, &agg)
	return m, nil
}

// cellCore is the timing core one sample runs on: the in-order baseline
// when io is set, otherwise the OoO core.
type cellCore struct {
	o  *ooo.Core
	io *inorder.Machine
}

// newCellCore builds the cell's core over prog, resuming from cp (nil: a
// fresh memory image at the program's entry), polling ctx for cancellation.
func newCellCore(ctx context.Context, prog *isa.Program, cp *checkpoint.Checkpoint, pol core.Policy, inOrder bool, cfg *Config) cellCore {
	var c cellCore
	switch {
	case inOrder && cp != nil:
		c.io = cp.InOrder(prog, cfg.IOParams)
	case inOrder:
		c.io = inorder.NewFromProgram(prog, cfg.IOParams)
	case cp != nil:
		c.o = cp.OoO(prog, pol, cfg.Params)
	default:
		c.o = ooo.NewFromProgram(prog, pol, cfg.Params)
	}
	if c.io != nil {
		c.io.Cancel = ctx.Done()
	} else {
		c.o.Cancel = ctx.Done()
	}
	return c
}

// run simulates n more instructions (the in-order core has no cycle cap).
func (c cellCore) run(n, maxCycles uint64) error {
	if c.io != nil {
		return c.io.RunInsts(n)
	}
	return c.o.RunInsts(n, maxCycles)
}

func (c cellCore) resetStats() {
	if c.io != nil {
		c.io.ResetStats()
		return
	}
	c.o.ResetStats()
}

// stats snapshots the counters by value, so the fold never aliases a live
// core. The in-order counters are a subset of ooo.Stats and widen here:
// the blocking core counts every cycle as a commit cycle and has no
// stall buckets, broadcasts or branch prediction, so the fold gives it
// CommitFrac = 1 and zero NDA columns.
func (c cellCore) stats() ooo.Stats {
	if c.io == nil {
		return *c.o.Stats()
	}
	s := c.io.Stats()
	return ooo.Stats{
		Cycles:       s.Cycles,
		Committed:    s.Committed,
		CommitCycles: s.Cycles,
		MLPSum:       s.MLPSum,
		MLPCycles:    s.MLPCycles,
		ILPSum:       s.ILPSum,
		ILPCycles:    s.ILPCycles,
	}
}

// sample is the SMARTS window schedule on one core: cfg.WarmInsts of
// warm-up, then one cfg.MeasureInsts window per slot of out, the windows
// separated by cfg.SkipInsts unmeasured instructions. The error names the
// window that failed.
func (c cellCore) sample(cfg *Config, out []ooo.Stats) error {
	if err := c.run(cfg.WarmInsts, cfg.MaxCycles); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i := range out {
		c.resetStats()
		if err := c.run(cfg.MeasureInsts, cfg.MaxCycles); err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
		out[i] = c.stats()
		if i < len(out)-1 {
			if err := c.run(cfg.SkipInsts, cfg.MaxCycles); err != nil {
				return fmt.Errorf("skip %d: %w", i, err)
			}
		}
	}
	return nil
}

// takeSeries returns one checkpoint series per spec, taken in parallel, or
// nil entries when cfg does not sample from checkpoints. A series depends
// only on its workload, so it is shared read-only by every measurement of
// that workload; restoring clones the memory, so the series itself is
// never written after this phase.
func takeSeries(ctx context.Context, specs []workload.Spec, cfg Config) ([]*SampleSeries, error) {
	series := make([]*SampleSeries, len(specs))
	if !cfg.UseCheckpoints {
		return series, nil
	}
	err := par.RunCtx(ctx, len(specs), cfg.workerCount(), func(i int) error {
		var err error
		series[i], err = TakeSamples(specs[i], cfg)
		return err
	})
	return series, err
}

// RunSweepCtx measures every benchmark under every policy (and, when
// includeInOrder is set, the in-order core), fanning the cells out over
// cfg.Workers goroutines. progress, if non-nil, receives one line per
// completed cell; it is called from at most one goroutine at a time, in
// completion order.
//
// Cancellation: once ctx is done, no queued cell starts, in-flight cells
// stop mid-simulation (the cores poll ctx.Done()), no further progress
// lines are emitted, and the ctx error is returned. Job errors from cells
// that ran take precedence.
//
// Determinism: every cell simulation derives all of its state from its
// (policy, workload) tuple — fresh program, memory image, core, and
// checkpoint series — and results land in index-addressed slots, so the
// returned Sweep is bit-identical for any worker count.
func RunSweepCtx(ctx context.Context, specs []workload.Spec, policies []core.Policy, includeInOrder bool, cfg Config, progress func(string)) (*Sweep, error) {
	var workloads, configs []string
	for _, spec := range specs {
		workloads = append(workloads, spec.Name)
	}
	for _, pol := range policies {
		configs = append(configs, pol.Name)
	}
	if includeInOrder {
		configs = append(configs, InOrderName)
	}
	sw := NewSweep(workloads, configs)

	series, err := takeSeries(ctx, specs, cfg)
	if err != nil {
		return nil, err
	}
	var seriesLeft []atomic.Int64 // cells still to run per workload
	if cfg.UseCheckpoints {
		seriesLeft = make([]atomic.Int64, len(specs))
		for i := range seriesLeft {
			seriesLeft[i].Store(int64(len(configs)))
		}
	}

	// One job per cell, ordered workload-major: indices are handed out in
	// order, so a workload's cells cluster in time and its checkpoint
	// series can be released as soon as the last one finishes.
	var jobs []cellJob
	for si, spec := range specs {
		for _, pol := range policies {
			jobs = append(jobs, cellJob{pol: pol, spec: spec, specIdx: si})
		}
		if includeInOrder {
			jobs = append(jobs, cellJob{inOrder: true, spec: spec, specIdx: si})
		}
	}

	// Cells saturate the pool on their own; the per-sample fan-out inside
	// the checkpointed measurements stays serial to avoid nested pools.
	cellCfg := cfg
	cellCfg.Workers = 1

	results := make([]*Measurement, len(jobs))
	var (
		progressMu sync.Mutex
		done       int
	)
	note := func(m *Measurement) {
		if progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		// Once the context is done the caller is tearing down (a timeout
		// fired or the job was cancelled); late cells finish silently so no
		// progress line races the caller's own output. Checking under the
		// lock makes that strict: a cancellation observed by one callback
		// suppresses every later one.
		if ctx.Err() != nil {
			return
		}
		done++
		progress(fmt.Sprintf("[%3d/%3d] %-18s %-14s CPI %s", done, len(jobs), m.Config, m.Workload, m.CPI))
	}
	err = par.RunCtx(ctx, len(jobs), cfg.workerCount(), func(i int) error {
		j := jobs[i]
		m, err := MeasureCell(ctx, j.spec, j.pol, j.inOrder, cellCfg, series[j.specIdx])
		if err != nil {
			return err
		}
		if cfg.UseCheckpoints && seriesLeft[j.specIdx].Add(-1) == 0 {
			// Last cell of this workload: drop the series so its cloned
			// memory pages can be reclaimed while the sweep continues.
			series[j.specIdx] = nil
		}
		results[i] = m
		note(m)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, m := range results {
		sw.Set(m.Config, m.Workload, m)
	}
	return sw, nil
}
