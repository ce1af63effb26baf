package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"nda/internal/attack"
	"nda/internal/harness"
)

func TestScheduleIsSeededPoisson(t *testing.T) {
	const rate = 2000.0
	d := 10 * time.Second
	a := schedule(7, rate, d)
	if b := schedule(7, rate, d); len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("the same seed gave different schedules")
	}
	if c := schedule(8, rate, d); len(c) == len(a) && c[0] == a[0] {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, at := range a {
		if at < 0 || at >= d || (i > 0 && at < a[i-1]) {
			t.Fatalf("due time %d = %v out of order or outside [0, %v)", i, at, d)
		}
	}
	// A Poisson count over d has mean and variance rate*d: allow 5 sigma.
	want := rate * d.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals over %v at %v/s, want about %v", got, d, rate, want)
	}
	// Exponential gaps have a coefficient of variation of 1.
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, (a[i] - a[i-1]).Seconds())
	}
	m := mean(gaps)
	var ss float64
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / m; cv < 0.9 || cv > 1.1 {
		t.Fatalf("gap coefficient of variation %.3f, want about 1", cv)
	}
}

func TestRunOpenQueuesLateArrivals(t *testing.T) {
	// Ten arrivals all due at once on one connection, each taking 2 ms:
	// every one is sent, in order, each later than the last, and its
	// latency runs from the shared due time.
	due := make([]time.Duration, 10)
	res := runOpen(context.Background(), due, 1, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	for i := range due {
		if res.Err[i] != nil {
			t.Fatalf("arrival %d: %v", i, res.Err[i])
		}
		if res.Latency[i] < time.Duration(i+1)*2*time.Millisecond {
			t.Fatalf("arrival %d: latency %v does not include its %d predecessors' service", i, res.Latency[i], i)
		}
		if i > 0 && res.Late[i] <= res.Late[i-1] {
			t.Fatalf("arrival %d sent %v late, no later than arrival %d (%v)", i, res.Late[i], i-1, res.Late[i-1])
		}
	}
}

func TestRunOpenCountsUnsentArrivals(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	due := []time.Duration{0, time.Hour}
	res := runOpen(ctx, due, 1, func(int) error { cancel(); return nil })
	if res.Err[0] != nil || res.Err[1] == nil {
		t.Fatalf("errors %v: want the second arrival, never sent, to carry the context's error", res.Err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1: input order must not matter
	}
	for _, c := range []struct {
		p          float64
		v          float64
		beyondWant int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyondWant {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.p*100, v, beyond, c.v, c.beyondWant)
		}
	}
	if _, err := tailPercentile(xs, 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := tailPercentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
}

func TestGroupLatencyTakesMediansOverGroups(t *testing.T) {
	// Four groups of 1000 arrivals; group k's latencies are (k+1) * 1..1000
	// microseconds, so its p50 is (k+1)*500 us and its p99 (k+1)*990 us.
	// A failed request is no sample.
	var groups []openResult
	for k := 0; k < 4; k++ {
		var res openResult
		for i := 1; i <= 1000; i++ {
			res.Latency = append(res.Latency, time.Duration((k+1)*i)*time.Microsecond)
			res.Err = append(res.Err, nil)
		}
		res.Latency = append(res.Latency, time.Hour)
		res.Err = append(res.Err, context.DeadlineExceeded)
		groups = append(groups, res)
	}
	r := newReport()
	groupLatency(r, groups)
	if len(r.Problems) != 0 {
		t.Fatal(r.Problems)
	}
	if got := r.Details["p99_ms"].(float64); math.Abs(got-2.475) > 1e-9 { // median of 0.99, 1.98, 2.97, 3.96
		t.Errorf("p99 %v ms, want 2.475", got)
	}
	if got := r.Metrics["p50_ms"].Value; math.Abs(got-1.25) > 1e-9 {
		t.Errorf("p50 %v ms, want 1.25", got)
	}

	// A group of 999 samples cannot place its p99.
	short := openResult{Latency: groups[0].Latency[:999], Err: groups[0].Err[:999]}
	r = newReport()
	groupLatency(r, []openResult{groups[1], short})
	if len(r.Problems) != 1 {
		t.Fatalf("want one problem for the short group, got %v", r.Problems)
	}
}

func TestGaps(t *testing.T) {
	done := []time.Duration{100 * time.Millisecond, 900 * time.Millisecond, 1500 * time.Millisecond, 2100 * time.Millisecond}
	g := gaps(done)
	if g[0] != 100*time.Millisecond || g[3] != 600*time.Millisecond {
		t.Fatalf("gaps %v", g)
	}
}

func TestGoldenComparison(t *testing.T) {
	o := opts{root: ".."}
	golden, err := readFile(o.root, goldenSweep)
	if err != nil {
		t.Fatal(err)
	}
	var sw, gold harness.Sweep
	if err := json.Unmarshal(golden, &sw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &gold); err != nil {
		t.Fatal(err)
	}
	if err := matchGolden(&sw, golden); err != nil {
		t.Fatalf("the golden's own decoding must re-encode byte for byte: %v", err)
	}
	sw.Get("Strict", "mcf").Cycles++
	if err := matchGolden(&sw, golden); err == nil || !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("one changed cycle count: got %v, want a byte-offset mismatch", err)
	}
	if n := cellMismatches(&sw, &gold); n != 1 {
		t.Fatalf("%d mismatched cells, want 1", n)
	}

	golden, err = readFile(o.root, goldenMatrix)
	if err != nil {
		t.Fatal(err)
	}
	var cells, goldCells []attack.Cell
	if err := json.Unmarshal(golden, &cells); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &goldCells); err != nil {
		t.Fatal(err)
	}
	if err := matchGolden(cells, golden); err != nil {
		t.Fatalf("the matrix golden must re-encode byte for byte: %v", err)
	}
	if len(cells) != len(matrixJobs()) {
		t.Fatalf("golden has %d cells, the benchmark runs %d", len(cells), len(matrixJobs()))
	}
	cells[3].Outcome.Series[17]++
	if err := matchGolden(cells, golden); err == nil {
		t.Fatal("a changed timing sample must fail the comparison")
	}
	if n := matrixMismatches(cells, goldCells); n != 1 {
		t.Fatalf("%d mismatched matrix cells, want 1", n)
	}
	if n := matrixMismatches(cells[:80], goldCells); n != 11 {
		t.Fatalf("a truncated matrix: %d mismatches, want 11", n)
	}
}

func TestAccountResiduals(t *testing.T) {
	tr := newTracer("whole")
	tr.spans = []span{
		{name: "whole", id: 1, start: 0, end: 100 * time.Millisecond},
		{name: "a", id: 1, start: 0, end: 60 * time.Millisecond},
		{name: "b", id: 1, start: 60 * time.Millisecond, end: 99 * time.Millisecond},
		{name: "whole", id: 2, start: 0, end: 10 * time.Millisecond},
		{name: "a", id: 2, start: 0, end: 5 * time.Millisecond},
	}
	wholes, res := tr.account()
	if len(wholes) != 2 || res[0] != time.Millisecond || res[1] != 5*time.Millisecond {
		t.Fatalf("wholes %v residuals %v", wholes, res)
	}
	r := newReport()
	checkAccount(r, tr, "harness.cell_ms", "harness.residual_ms")
	if len(r.Problems) != 1 {
		t.Fatalf("a 5 ms residual on a 10 ms whole breaks the bound: want one problem, got %v", r.Problems)
	}
	if got := r.Metrics["harness.residual_ms"].Value; got != 3 {
		t.Fatalf("mean residual %v ms, want 3", got)
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", label, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestBatchSweepsAreFresh(t *testing.T) {
	seen := map[string]bool{}
	for seq := 0; seq < 200; seq++ {
		b, err := json.Marshal(batchSweep(5, seq))
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("batch request %d repeats an earlier one", seq)
		}
		seen[string(b)] = true
	}
	for _, r := range hotSweeps(5) {
		if b, _ := json.Marshal(r); seen[string(b)] {
			t.Fatal("a batch request repeats a hot one")
		}
	}
}
