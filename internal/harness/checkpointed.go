package harness

import (
	"context"
	"fmt"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/stats"
	"nda/internal/workload"
)

// Checkpoint-based SMARTS sampling: instead of simulating the whole region
// between measurement intervals in detail (the continuous mode of
// MeasureOoOCtx), the functional emulator fast-forwards to sampling points
// spread CheckpointStride instructions apart, captures an architectural
// checkpoint at each (the Lapidary role), and the timing core runs only the
// warm-up + measurement window from every checkpoint. This both cuts
// detailed-simulation cost and samples more distant program phases, like
// the paper's methodology.
//
// Every sample is an independent simulation seeded entirely by its
// checkpoint (restoring clones the checkpoint's memory), so the samples of
// one measurement fan out over cfg.Workers goroutines, and one workload's
// series is shared read-only by every policy's measurement of it — or, via
// internal/serve's content-addressed cache, by every *request* that ever
// asks for that (workload, sampling spec) again.

// SampleSeries is a workload's sampling points: the generated program plus
// the checkpoints the timing cores restore from. It is immutable once
// taken, so any number of concurrent measurements may share it.
type SampleSeries struct {
	prog *isa.Program
	cps  []*checkpoint.Checkpoint
}

// TakeSamples builds the workload's program and captures cfg.Intervals
// checkpoints starting after cfg.WarmInsts instructions, spaced
// cfg.CheckpointStride apart (0 = 10x the warm+measure window).
func TakeSamples(spec workload.Spec, cfg Config) (*SampleSeries, error) {
	prog := spec.Build(hugeIters)
	stride := cfg.CheckpointStride
	if stride == 0 {
		stride = 10 * (cfg.WarmInsts + cfg.MeasureInsts)
	}
	cps, err := checkpoint.TakeSeries(prog, cfg.WarmInsts, stride, cfg.Intervals)
	if err != nil {
		return nil, fmt.Errorf("harness: %s checkpoints: %w", spec.Name, err)
	}
	return &SampleSeries{prog: prog, cps: cps}, nil
}

// oooSample is one detailed-simulation sample, snapshotted by value so the
// fold below never aliases a live core's counters.
type oooSample struct {
	cpi float64
	s   ooo.Stats
}

// MeasureOoOSamples runs the timing samples of one (workload, policy) cell
// over the shared series, up to cfg.Workers at a time, and folds them in
// sample order — the fold is identical no matter which samples finish
// first. Cancellation: queued samples stop starting and running cores stop
// mid-simulation once ctx is done.
func MeasureOoOSamples(ctx context.Context, spec workload.Spec, pol core.Policy, cfg Config, ss *SampleSeries) (*Measurement, error) {
	out := make([]oooSample, len(ss.cps))
	err := par.RunCtx(ctx, len(ss.cps), cfg.workerCount(), func(i int) error {
		c := ss.cps[i].OoO(ss.prog, pol, cfg.Params)
		c.Cancel = ctx.Done()
		if err := c.RunInsts(cfg.WarmInsts, cfg.MaxCycles); err != nil {
			return ctxErr(ctx, fmt.Errorf("harness: %s/%s sample %d warm-up: %w", spec.Name, pol.Name, i, err))
		}
		c.ResetStats()
		if err := c.RunInsts(cfg.MeasureInsts, cfg.MaxCycles); err != nil {
			return ctxErr(ctx, fmt.Errorf("harness: %s/%s sample %d: %w", spec.Name, pol.Name, i, err))
		}
		s := *c.Stats()
		out[i] = oooSample{cpi: s.CPI(), s: s}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := &Measurement{Workload: spec.Name, Config: pol.Name}
	var cpis []float64
	var agg ooo.Stats
	for _, smp := range out {
		cpis = append(cpis, smp.cpi)
		addStats(&agg, smp.s)
	}
	m.CPI = stats.Summarize(cpis)
	fillFromStats(m, &agg)
	return m, nil
}

// MeasureOoOCheckpointed measures one benchmark under one policy using
// checkpoint sampling (cfg.Intervals samples, each warmed for cfg.WarmInsts
// detailed instructions and measured for cfg.MeasureInsts, run up to
// cfg.Workers at a time).
func MeasureOoOCheckpointed(spec workload.Spec, pol core.Policy, cfg Config) (*Measurement, error) {
	ss, err := TakeSamples(spec, cfg)
	if err != nil {
		return nil, err
	}
	return MeasureOoOSamples(context.Background(), spec, pol, cfg, ss)
}

// inOrderSample mirrors oooSample for the blocking core.
type inOrderSample struct {
	cpi                                               float64
	cycles, committed, mlpSum, mlpCyc, ilpSum, ilpCyc uint64
}

// MeasureInOrderSamples is the in-order counterpart of MeasureOoOSamples.
func MeasureInOrderSamples(ctx context.Context, spec workload.Spec, cfg Config, ss *SampleSeries) (*Measurement, error) {
	out := make([]inOrderSample, len(ss.cps))
	err := par.RunCtx(ctx, len(ss.cps), cfg.workerCount(), func(i int) error {
		c := ss.cps[i].InOrder(ss.prog, cfg.IOParams)
		c.Cancel = ctx.Done()
		if err := c.RunInsts(cfg.WarmInsts); err != nil {
			return ctxErr(ctx, fmt.Errorf("harness: %s/in-order sample %d warm-up: %w", spec.Name, i, err))
		}
		c.ResetStats()
		if err := c.RunInsts(cfg.MeasureInsts); err != nil {
			return ctxErr(ctx, fmt.Errorf("harness: %s/in-order sample %d: %w", spec.Name, i, err))
		}
		s := c.Stats()
		out[i] = inOrderSample{
			cpi:    s.CPI(),
			cycles: s.Cycles, committed: s.Committed,
			mlpSum: s.MLPSum, mlpCyc: s.MLPCycles,
			ilpSum: s.ILPSum, ilpCyc: s.ILPCycles,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := &Measurement{Workload: spec.Name, Config: InOrderName}
	var cpis []float64
	var cycles, committed, mlpSum, mlpCyc, ilpSum, ilpCyc uint64
	for _, smp := range out {
		cpis = append(cpis, smp.cpi)
		cycles += smp.cycles
		committed += smp.committed
		mlpSum += smp.mlpSum
		mlpCyc += smp.mlpCyc
		ilpSum += smp.ilpSum
		ilpCyc += smp.ilpCyc
	}
	m.CPI = stats.Summarize(cpis)
	m.Cycles, m.Committed = cycles, committed
	if mlpCyc > 0 {
		m.MLP = float64(mlpSum) / float64(mlpCyc)
	}
	if ilpCyc > 0 {
		m.ILP = float64(ilpSum) / float64(ilpCyc)
	}
	m.CommitFrac = 1
	return m, nil
}

// MeasureInOrderCheckpointed is the in-order counterpart of
// MeasureOoOCheckpointed.
func MeasureInOrderCheckpointed(spec workload.Spec, cfg Config) (*Measurement, error) {
	ss, err := TakeSamples(spec, cfg)
	if err != nil {
		return nil, err
	}
	return MeasureInOrderSamples(context.Background(), spec, cfg, ss)
}
