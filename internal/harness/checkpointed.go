package harness

import (
	"context"
	"fmt"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/workload"
)

// Checkpoint-based SMARTS sampling: instead of simulating the whole region
// between measurement intervals in detail (MeasureCell's continuous
// schedule), the functional emulator fast-forwards to sampling points
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

// measureCheckpoints is the checkpoint schedule: one core per checkpoint of
// ss, each warmed and measured for one window, up to cfg.Workers at a time.
// Samples land in checkpoint order, so the fold is the same whichever
// finishes first. Cancellation: queued samples stop starting and running
// cores stop mid-window once ctx is done. It is a function of its own
// because its closure moves cfg to the heap; the continuous schedule in
// MeasureCell keeps cfg on the stack.
func measureCheckpoints(ctx context.Context, ss *SampleSeries, pol core.Policy, inOrder bool, cfg Config) ([]ooo.Stats, error) {
	out := make([]ooo.Stats, len(ss.cps))
	err := par.RunCtx(ctx, len(ss.cps), cfg.workerCount(), func(i int) error {
		c := newCellCore(ctx, ss.prog, ss.cps[i], pol, inOrder, &cfg)
		if err := c.sample(&cfg, out[i:i+1]); err != nil {
			return fmt.Errorf("sample %d %w", i, err)
		}
		return nil
	})
	return out, err
}
