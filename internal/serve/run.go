package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"nda/internal/gadget"
	"nda/internal/harness"
	"nda/internal/par"
	"nda/internal/workload"
)

// cachedBuiltins memoizes gadget.Builtins for the life of the process:
// assembling every builtin attack and workload program costs far more than
// serving a cache-resolved census cell, and the set is immutable (census
// goroutines already share Input values read-only, see gadget.BuildReport).
var cachedBuiltins = sync.OnceValues(gadget.Builtins)

// This file is where jobs meet the cache: every request decomposes, at
// submit, into a task — its independent cells plus a fold — and the one
// runner fans the cells out over the par pool, resolving each through
// Cache.DoTiered under its content-addressed key. A repeated request — or a
// different request that shares cells with an earlier one (a sweep over a
// workload subset, say, after a full sweep) — is assembled from memory
// without re-simulation.
//
// With a fleet configured (Config.Fleet), the cache-miss path dispatches
// the cell to a remote worker instead of computing here; everything else
// — decomposition, keys, merge order, error semantics — is shared with the
// local path, which is why a fleet-merged result is byte-identical to a
// single-process run.

// task is a validated request decomposed into its cells, in result order,
// plus the fold that assembles their resolved values into the response.
type task struct {
	kind     string // the job kind
	cells    []cell
	assemble func(vals []any) any
}

// runTask resolves a task's cells over the simulation pool, counting
// progress on j, and folds the values, in cell order, into the response.
func (m *Manager) runTask(ctx context.Context, j *Job, t *task) (any, error) {
	// Add, not Store: a warm job runs several tasks and accumulates one
	// combined progress total.
	j.total.Add(int64(len(t.cells)))
	j.bump()
	vals := make([]any, len(t.cells))
	err := par.RunCtx(ctx, len(t.cells), m.simWorkers(), func(i int) error {
		v, err := m.resolve(ctx, j, &t.cells[i])
		if err != nil {
			return err
		}
		vals[i] = v
		j.done.Add(1)
		j.bump()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t.assemble(vals), nil
}

// resolve is the one path every cell takes: the RAM tier, then the disk
// tier, then — on a miss — a fleet dispatch (coordinator) or the cell's
// local compute. The tier that answered is folded into j's and the
// service's counters. j is nil on the worker-side /v1/cell path.
func (m *Manager) resolve(ctx context.Context, j *Job, c *cell) (any, error) {
	shared := false
	v, tier, err := m.cache.DoTiered(ctx, c.key, m.tier2(), c.decode, func() (any, error) {
		if m.cfg.Fleet == nil {
			return c.compute(ctx, m, c)
		}
		v, hit, err := m.remoteCell(ctx, j, c)
		shared = hit
		return v, err
	})
	if err != nil {
		return nil, err
	}
	m.noteTier(j, tier, shared)
	return v, nil
}

// seriesKey identifies a workload's checkpoint series: the sampling spec
// determines where the sampling points fall, nothing else does.
type seriesKey struct {
	Workload string         `json:"workload"`
	Config   harness.Config `json:"config"`
}

// samples cache-resolves a workload's checkpoint series. Series reuse is
// not counted in the cell hit/miss metrics: the series is an intermediate,
// not a client-visible result.
func (m *Manager) samples(ctx context.Context, spec workload.Spec, cfg harness.Config) (*harness.SampleSeries, error) {
	keyCfg := cfg
	keyCfg.Workers = 0
	key := Key("series", seriesKey{Workload: spec.Name, Config: keyCfg})
	v, _, err := m.cache.Do(ctx, key, func() (any, error) {
		return harness.TakeSamples(spec, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*harness.SampleSeries), nil
}

// remoteCell resolves one cell through the fleet and decodes the winning
// response. The coordinator consults its fleet-shared store under the
// cell's cache key first — sharedHit reports that the result came from
// there and no worker was touched. On a real dispatch, the job's
// per-worker progress counters absorb the dispatch record (retries,
// hedges, the worker that served it).
func (m *Manager) remoteCell(ctx context.Context, j *Job, c *cell) (v any, sharedHit bool, err error) {
	body, err := json.Marshal(c.req)
	if err != nil {
		return nil, false, err
	}
	raw, stat, err := m.cfg.Fleet.Do(ctx, "/v1/cell", c.key, body)
	j.noteDispatch(stat)
	if err != nil {
		return nil, false, err
	}
	if v, err = c.decode(raw); err != nil {
		return nil, false, fmt.Errorf("serve: undecodable cell response from %s: %w", stat.Worker, err)
	}
	return v, stat.SharedHit, nil
}

// noteTier folds one cell's resolution tier into the job's and the
// service's counters. shared marks a compute that the fleet-shared store
// absorbed before any worker was dispatched (only the coordinator's
// remoteCell path sets it). j may be nil: the worker-side /v1/cell path
// serves cells with no job behind them.
func (m *Manager) noteTier(j *Job, tier HitTier, shared bool) {
	switch {
	case tier == HitRAM:
		if j != nil {
			j.tierRAM.Add(1)
		}
		m.metrics.CacheHits.Add(1)
	case tier == HitDisk:
		if j != nil {
			j.tierDisk.Add(1)
		}
		m.metrics.CacheHits.Add(1)
		m.metrics.CacheDiskHits.Add(1)
	case shared:
		if j != nil {
			j.tierShared.Add(1)
		}
		m.metrics.CacheMisses.Add(1)
	default:
		if j != nil {
			j.tierComputed.Add(1)
		}
		m.metrics.CacheMisses.Add(1)
	}
}
