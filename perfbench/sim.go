package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/harness"
	"nda/internal/inorder"
	"nda/internal/mem"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/stats"
	"nda/internal/workload"
)

// The goldens the simulation workloads are checked against, byte for byte.
const (
	goldenSweep  = "testdata/golden/sweep_quick.json"
	goldenMatrix = "testdata/golden/attack_matrix.json"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// hugeIters is the loop bound harness.MeasureOoO builds workloads with;
// the traced cells must build the identical programs, which the golden
// comparison checks.
const hugeIters = 1 << 40

// encode renders a result exactly as ndabench -json and ndattack -json
// write it.
func encode(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// matchGolden reports where got's encoding first departs from golden.
func matchGolden(got any, golden []byte) error {
	b, err := encode(got)
	if err != nil {
		return err
	}
	if bytes.Equal(b, golden) {
		return nil
	}
	n := min(len(b), len(golden))
	i := 0
	for i < n && b[i] == golden[i] {
		i++
	}
	return fmt.Errorf("differs from the golden at byte %d of %d", i, len(golden))
}

func readFile(root, rel string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return nil, fmt.Errorf("reading golden: %w", err)
	}
	return b, nil
}

// timedSetup runs setup setupRepeats times and sets setup_s to the median.
func timedSetup(r *report, setup func() error) error {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", median(secs))
	r.Details["setup_s_all"] = secs
	return nil
}

// repeatFor runs one batch, then as many more as bring the measured time
// nearest to seconds, and returns each batch's time.
func repeatFor(seconds float64, batch func() (time.Duration, error)) ([]time.Duration, error) {
	first, err := batch()
	times := []time.Duration{first}
	if err != nil {
		return times, err
	}
	n := max(1, int(math.Round(seconds/first.Seconds())))
	for i := 1; i < n; i++ {
		d, err := batch()
		times = append(times, d)
		if err != nil {
			return times, err
		}
	}
	return times, nil
}

// gridMetrics sets the end-to-end metrics shared by the simulation grids.
// Throughput comes from the median grid time, so one grid slowed by
// contention from outside the process does not move the run's figure.
func gridMetrics(r *report, times []time.Duration, cellsPerGrid int, alloc uint64, lat []time.Duration) {
	secs := make([]float64, len(times))
	for i, d := range times {
		secs[i] = d.Seconds()
	}
	mid := median(secs)
	r.set("cells_per_s", "1/s", float64(cellsPerGrid)/mid)
	r.set("capacity_rps", "1/s", 1/mid)
	r.set("alloc_kb_per_op", "KiB", float64(alloc)/float64(len(times)*cellsPerGrid)/1024)
	gridLatency(r, lat)
	r.Details["grid_s"] = secs
}

// --- fig7-quick -----------------------------------------------------------

func quickConfig(workers int) harness.Config {
	cfg := harness.Quick()
	cfg.Workers = workers
	return cfg
}

// sweepCells is the number of cells in the quick Fig. 7 grid.
func sweepCells() int { return len(workload.SPEC()) * (len(core.All()) + 1) }

// cellMismatches counts the cells of sw whose encoding differs from the
// golden's.
func cellMismatches(sw, gold *harness.Sweep) int {
	bad := 0
	for _, c := range sw.Configs {
		for _, w := range sw.Workloads {
			a, errA := json.Marshal(sw.Get(c, w))
			b, errB := json.Marshal(gold.Get(c, w))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				bad++
			}
		}
	}
	return bad
}

// fig7Setup reads the golden and runs one workload's column of the grid as
// a warm-up, checked cell by cell against the golden.
func fig7Setup(ctx context.Context, o opts) (golden []byte, gold *harness.Sweep, err error) {
	golden, err = readFile(o.root, goldenSweep)
	if err != nil {
		return nil, nil, err
	}
	gold = new(harness.Sweep)
	if err := json.Unmarshal(golden, gold); err != nil {
		return nil, nil, fmt.Errorf("decoding %s: %w", goldenSweep, err)
	}
	sw, err := harness.RunSweepCtx(ctx, workload.SPEC()[:1], core.All(), true, quickConfig(o.workers), nil)
	if err != nil {
		return nil, nil, err
	}
	if bad := cellMismatches(sw, gold); bad > 0 {
		return nil, nil, fmt.Errorf("warm-up: %d cells differ from the golden", bad)
	}
	return golden, gold, nil
}

func runFig7(ctx context.Context, o opts, r *report) error {
	var golden []byte
	var gold *harness.Sweep
	if err := timedSetup(r, func() (err error) {
		golden, gold, err = fig7Setup(ctx, o)
		return err
	}); err != nil {
		return err
	}
	cells := sweepCells()
	var (
		lat   []time.Duration
		alloc uint64
	)
	sweep := func() (time.Duration, error) {
		r.Attempted += cells
		a0 := allocBytes()
		t0 := time.Now()
		sw, err := harness.RunSweepCtx(ctx, workload.SPEC(), core.All(), true, quickConfig(o.workers), func(string) {
			lat = append(lat, time.Since(t0)) // progress calls are serialized
		})
		d := time.Since(t0)
		alloc += allocBytes() - a0
		if err != nil {
			r.Failed += cells
			return d, err
		}
		if err := matchGolden(sw, golden); err != nil {
			r.Failed += max(1, cellMismatches(sw, gold))
			r.fail("quick sweep: %v", err)
		}
		return d, nil
	}
	runtime.GC()
	times, err := repeatFor(o.seconds, sweep)
	if err != nil {
		return err
	}
	gridMetrics(r, times, cells, alloc, lat)
	return nil
}

// cellJob is one cell of the quick grid: a workload under a policy, or on
// the in-order core.
type cellJob struct {
	spec    workload.Spec
	pol     core.Policy
	inOrder bool
}

func (j cellJob) config() string {
	if j.inOrder {
		return harness.InOrderName
	}
	return j.pol.Name
}

func gridJobs() []cellJob {
	var jobs []cellJob
	for _, spec := range workload.SPEC() {
		for _, pol := range core.All() {
			jobs = append(jobs, cellJob{spec: spec, pol: pol})
		}
		jobs = append(jobs, cellJob{spec: spec, inOrder: true})
	}
	return jobs
}

// cellOut is what a traced cell measured: the fields the golden pins, the
// whole run's counts, and the memory image size.
type cellOut struct {
	cpi               stats.Summary
	cycles, committed uint64 // over the measured intervals
	totalCycles       uint64 // warm-up, measurement and skips
	insts             uint64
	pages             int
}

// tracedCell replays harness.MeasureOoOCtx / MeasureInOrderCtx through
// the same public calls, with a span around each: workload build, memory
// image load, core construction, warm-up, measured intervals and skips.
func tracedCell(ctx context.Context, t *tracer, id int, j cellJob, cfg harness.Config) (cellOut, error) {
	var out cellOut
	whole := t.now()
	s := t.now()
	prog := j.spec.Build(hugeIters)
	t.end("workload.build", id, s)
	s = t.now()
	m := mem.New()
	emu.Load(m, prog)
	t.end("emu.load", id, s)
	out.pages = m.MappedPages()

	var cpis []float64
	if j.inOrder {
		s = t.now()
		c := inorder.New(prog, m, cfg.IOParams)
		c.Cancel = ctx.Done()
		t.end("inorder.new", id, s)
		run := func(n uint64) error {
			s := t.now()
			err := c.RunInsts(n)
			t.end("inorder.run", id, s)
			return err
		}
		if err := run(cfg.WarmInsts); err != nil {
			return out, err
		}
		for i := 0; i < cfg.Intervals; i++ {
			c.ResetStats()
			if err := run(cfg.MeasureInsts); err != nil {
				return out, err
			}
			st := *c.Stats()
			cpis = append(cpis, st.CPI())
			out.cycles += st.Cycles
			out.committed += st.Committed
			if i < cfg.Intervals-1 && cfg.SkipInsts > 0 {
				c.ResetStats()
				if err := run(cfg.SkipInsts); err != nil {
					return out, err
				}
			}
		}
		out.totalCycles, out.insts = c.Cycles(), c.Retired()
	} else {
		s = t.now()
		c := ooo.New(prog, m, j.pol, cfg.Params)
		c.Cancel = ctx.Done()
		t.end("ooo.new", id, s)
		run := func(name string, n uint64) error {
			s := t.now()
			err := c.RunInsts(n, cfg.MaxCycles)
			t.end(name, id, s)
			return err
		}
		if err := run("ooo.warm", cfg.WarmInsts); err != nil {
			return out, err
		}
		for i := 0; i < cfg.Intervals; i++ {
			c.ResetStats()
			if err := run("ooo.measure", cfg.MeasureInsts); err != nil {
				return out, err
			}
			st := *c.Stats()
			cpis = append(cpis, st.CPI())
			out.cycles += st.Cycles
			out.committed += st.Committed
			if i < cfg.Intervals-1 && cfg.SkipInsts > 0 {
				c.ResetStats()
				if err := run("ooo.skip", cfg.SkipInsts); err != nil {
					return out, err
				}
			}
		}
		out.totalCycles, out.insts = c.Cycles(), c.Retired()
	}
	out.cpi = stats.Summarize(cpis)
	t.end("harness.cell", id, whole)
	return out, nil
}

func traceFig7(ctx context.Context, o opts, r *report) error {
	golden, gold, err := fig7Setup(ctx, o)
	if err != nil {
		return err
	}
	cfg := quickConfig(o.workers)

	// Untraced reference: the same grid through harness.RunSweepCtx.
	t0 := time.Now()
	sw, err := harness.RunSweepCtx(ctx, workload.SPEC(), core.All(), true, cfg, nil)
	untraced := time.Since(t0)
	if err != nil {
		return err
	}
	if err := matchGolden(sw, golden); err != nil {
		r.fail("untraced quick sweep: %v", err)
	}

	jobs := gridJobs()
	r.Attempted = len(jobs)
	outs := make([]cellOut, len(jobs))
	t := newTracer("harness.cell")
	gc0, cpu0 := gcCPU()
	t1 := time.Now()
	err = par.RunCtx(ctx, len(jobs), o.workers, func(i int) error {
		out, err := tracedCell(ctx, t, i, jobs[i], cfg)
		outs[i] = out
		return err
	})
	traced := time.Since(t1)
	gcFrac(r, gc0, cpu0)
	if err != nil {
		return err
	}

	var nOoO, nIO, pages int
	var oooCycles, oooInsts, ioCycles uint64
	for i, j := range jobs {
		g := gold.Get(j.config(), j.spec.Name)
		o := outs[i]
		if g == nil || g.CPI != o.cpi || g.Cycles != o.cycles || g.Committed != o.committed {
			r.Failed++
			r.fail("traced cell %s/%s differs from the golden", j.config(), j.spec.Name)
		}
		pages += o.pages
		if j.inOrder {
			nIO++
			ioCycles += o.totalCycles
		} else {
			nOoO++
			oooCycles += o.totalCycles
			oooInsts += o.insts
		}
	}

	n := len(jobs)
	r.set("workload.build_ms", "ms", t.meanMS("workload.build", n))
	r.set("emu.load_ms", "ms", t.meanMS("emu.load", n))
	r.set("mem.pages", "count", float64(pages)/float64(n))
	r.set("ooo.new_ms", "ms", t.meanMS("ooo.new", nOoO))
	r.set("inorder.new_ms", "ms", t.meanMS("inorder.new", nIO))
	r.set("ooo.new_alloc_kb", "KiB", oooNewAllocKB(cfg))
	oooRun := t.total("ooo.warm") + t.total("ooo.measure") + t.total("ooo.skip")
	r.set("ooo.warm_ms", "ms", t.meanMS("ooo.warm", nOoO))
	r.set("ooo.measure_ms", "ms", t.meanMS("ooo.measure", nOoO))
	r.set("ooo.skip_ms", "ms", t.meanMS("ooo.skip", nOoO))
	r.set("ooo.ns_per_cycle", "ns", float64(oooRun)/float64(oooCycles))
	r.set("ooo.cycles", "count", float64(oooCycles))
	r.set("ooo.insts", "count", float64(oooInsts))
	r.set("inorder.run_ms", "ms", t.meanMS("inorder.run", nIO))
	r.set("inorder.ns_per_cycle", "ns", float64(t.total("inorder.run"))/float64(ioCycles))
	checkAccount(r, t, "harness.cell_ms", "harness.residual_ms")
	poolMetrics(r, t, o.workers, traced)
	overhead(r, untraced.Seconds(), traced.Seconds())
	return nil
}

// oooNewAllocKB measures the heap one ooo.New allocates, serially so no
// other goroutine's allocations are counted.
func oooNewAllocKB(cfg harness.Config) float64 {
	prog := workload.SPEC()[0].Build(hugeIters)
	m := mem.New()
	emu.Load(m, prog)
	const n = 8
	cores := make([]*ooo.Core, 0, n)
	a0 := allocBytes()
	for i := 0; i < n; i++ {
		cores = append(cores, ooo.New(prog, m, core.Baseline(), cfg.Params))
	}
	a1 := allocBytes()
	runtime.KeepAlive(cores)
	return float64(a1-a0) / n / 1024
}

// poolMetrics sets the worker pool's idle share and slowest cell from the
// whole-cell spans of a phase that ran wall long on workers.
func poolMetrics(r *report, t *tracer, workers int, wall time.Duration) {
	wholes, _ := t.account()
	var busy, slowest time.Duration
	for _, w := range wholes {
		busy += w
		slowest = max(slowest, w)
	}
	r.set("par.idle_frac", "ratio", 1-float64(busy)/(float64(workers)*float64(wall)))
	r.set("par.max_cell_ms", "ms", ms(slowest))
}

// overhead reports tracing overhead: how much longer the traced pass took
// than the untraced pass over the same work.
func overhead(r *report, untraced, traced float64) {
	r.set("trace.overhead_frac", "ratio", traced/untraced-1)
	r.Details["untraced_s"] = untraced
	r.Details["traced_s"] = traced
}

// --- attack-matrix --------------------------------------------------------

// matrixJob is one cell of the attack matrix, in MatrixCtx's order.
type matrixJob struct {
	kind    attack.Kind
	pol     core.Policy
	inOrder bool
}

func matrixJobs() []matrixJob {
	var jobs []matrixJob
	for _, k := range attack.All() {
		for _, p := range core.All() {
			jobs = append(jobs, matrixJob{kind: k, pol: p})
		}
		jobs = append(jobs, matrixJob{kind: k, inOrder: true})
	}
	return jobs
}

// runMatrixCell runs one PoC as attack.MatrixCtx does.
func runMatrixCell(ctx context.Context, j matrixJob) (attack.Cell, error) {
	if j.inOrder {
		out, err := attack.RunInOrderCtx(ctx, j.kind)
		return attack.Cell{Attack: j.kind, Policy: "In-Order", Outcome: out}, err
	}
	out, err := attack.RunCtx(ctx, j.kind, j.pol, ooo.DefaultParams())
	return attack.Cell{Attack: j.kind, Policy: j.pol.Name, Outcome: out, Expected: attack.Expected[j.kind][j.pol.Name]}, err
}

// matrixSetup reads the golden and runs the matrix's first row (one
// attack under every configuration) as a warm-up, checked against it.
func matrixSetup(ctx context.Context, o opts) (golden []byte, gold []attack.Cell, err error) {
	golden, err = readFile(o.root, goldenMatrix)
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(golden, &gold); err != nil {
		return nil, nil, fmt.Errorf("decoding %s: %w", goldenMatrix, err)
	}
	row := len(core.All()) + 1
	cells := make([]attack.Cell, row)
	jobs := matrixJobs()
	if err := par.RunCtx(ctx, row, o.workers, func(i int) (err error) {
		cells[i], err = runMatrixCell(ctx, jobs[i])
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := matchGolden(cells, mustEncodeSlice(gold[:row])); err != nil {
		return nil, nil, fmt.Errorf("warm-up row: %v", err)
	}
	return golden, gold, nil
}

// mustEncodeSlice re-encodes decoded golden cells; they came from JSON, so
// encoding cannot fail.
func mustEncodeSlice(cells []attack.Cell) []byte {
	b, err := encode(cells)
	if err != nil {
		panic(err)
	}
	return b
}

// matrixMismatches counts the cells whose encoding differs from the golden.
func matrixMismatches(cells, gold []attack.Cell) int {
	bad := 0
	for i := range cells {
		if i >= len(gold) {
			bad++
			continue
		}
		a, errA := json.Marshal(cells[i])
		b, errB := json.Marshal(gold[i])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			bad++
		}
	}
	return bad + max(0, len(gold)-len(cells))
}

func runMatrix(ctx context.Context, o opts, r *report) error {
	var golden []byte
	var gold []attack.Cell
	if err := timedSetup(r, func() (err error) {
		golden, gold, err = matrixSetup(ctx, o)
		return err
	}); err != nil {
		return err
	}
	cells := len(matrixJobs())
	var (
		lat   []time.Duration
		alloc uint64
	)
	matrix := func() (time.Duration, error) {
		r.Attempted += cells
		a0 := allocBytes()
		t0 := time.Now()
		got, err := attack.MatrixCtx(ctx, ooo.DefaultParams(), o.workers)
		d := time.Since(t0)
		alloc += allocBytes() - a0
		if err != nil {
			r.Failed += cells
			return d, err
		}
		// The matrix hands every cell back at once.
		for range got {
			lat = append(lat, d)
		}
		if err := matchGolden(got, golden); err != nil {
			r.Failed += max(1, matrixMismatches(got, gold))
			r.fail("attack matrix: %v", err)
		}
		return d, nil
	}
	runtime.GC()
	times, err := repeatFor(o.seconds, matrix)
	if err != nil {
		return err
	}
	gridMetrics(r, times, cells, alloc, lat)
	return nil
}

func traceMatrix(ctx context.Context, o opts, r *report) error {
	golden, _, err := matrixSetup(ctx, o)
	if err != nil {
		return err
	}
	// Untraced reference passes, then traced passes over as many matrices.
	var untraced, traced time.Duration
	passes := 0
	t := newTracer("matrix.cell")
	var mu sync.Mutex
	var runs int
	var cycles uint64
	gc0, cpu0 := gcCPU()
	for passes == 0 || (untraced+traced).Seconds() < o.seconds {
		t0 := time.Now()
		got, err := attack.MatrixCtx(ctx, ooo.DefaultParams(), o.workers)
		untraced += time.Since(t0)
		if err != nil {
			return err
		}
		if err := matchGolden(got, golden); err != nil {
			r.fail("untraced attack matrix: %v", err)
		}

		jobs := matrixJobs()
		r.Attempted += len(jobs)
		cells := make([]attack.Cell, len(jobs))
		base := passes * len(jobs)
		t1 := time.Now()
		err = par.RunCtx(ctx, len(jobs), o.workers, func(i int) error {
			id := base + i
			whole := t.now()
			s := t.now()
			if _, err := attack.Program(jobs[i].kind); err != nil {
				return err
			}
			t.end("attack.program", id, s)
			s = t.now()
			c, err := runMatrixCell(ctx, jobs[i])
			t.end("attack.run", id, s)
			t.end("matrix.cell", id, whole)
			cells[i] = c
			if err == nil {
				mu.Lock()
				runs++
				cycles += c.Outcome.Cycles
				mu.Unlock()
			}
			return err
		})
		traced += time.Since(t1)
		if err != nil {
			return err
		}
		if err := matchGolden(cells, golden); err != nil {
			r.Failed += len(jobs)
			r.fail("traced attack matrix: %v", err)
		}
		passes++
	}
	gcFrac(r, gc0, cpu0)
	r.set("attack.program_ms", "ms", t.meanMS("attack.program", runs))
	r.set("attack.run_ms", "ms", t.meanMS("attack.run", runs))
	r.set("attack.cycles", "count", float64(cycles)/float64(passes))
	checkAccount(r, t, "", "")
	poolMetrics(r, t, o.workers, traced)
	overhead(r, untraced.Seconds(), traced.Seconds())
	r.Details["passes"] = passes
	return nil
}
