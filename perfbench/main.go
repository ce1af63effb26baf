// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator or the serving stack, all inside this
// process, checks every output, and prints each metric by name and unit.
//
//	bash perfbench/run.sh --workload fig7-quick --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
// separate traced pass and prints the per-layer account instead. The last
// line of standard output is the result object; the line before it records
// the host, the run's settings, sample counts and check outcomes. See
// README.md for each workload's rationale and the layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates what a workload measured and checked.
type report struct {
	Attempted int
	Failed    int
	// Problems lists every failed check; any entry makes the run incorrect.
	Problems []string
	Metrics  map[string]metric
	// Details lands on the fingerprint line: sample counts, accounting
	// residuals, tracing overhead, phase timings.
	Details map[string]any
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Details: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// opts is one run's settings, straight from the command line.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int // simulation workers and HTTP connections: nproc
	root     string
}

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	run, traced func(ctx context.Context, o opts, r *report) error
}{
	"fig7-quick":    {runFig7, traceFig7},
	"attack-matrix": {runMatrix, traceMatrix},
	"serve-hot":     {runServeHot, traceServeHot},
	"serve-mixed":   {runServeMixed, traceServeMixed},
}

// hardLimit bounds a whole run, set-up included, so a wedged server or a
// pathological slowdown still ends the process with a failure well inside
// the 180 s every run must finish in.
const hardLimit = 150 * time.Second

func main() {
	var (
		o     opts
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: fig7-quick, attack-matrix, serve-hot or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <fig7-quick|attack-matrix|serve-hot|serve-mixed> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	o.root = "."

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	r := newReport()
	run := w.run
	if o.trace {
		run = w.traced
	}
	if err := run(ctx, o, r); err != nil {
		r.fail("%v", err)
	}
	r.set("max_rss_mb", "MB", maxRSSMB())
	os.Exit(emit(o, r))
}

// emit prints the fingerprint line and the result line, and returns the
// exit code: 1 when any check failed.
func emit(o opts, r *report) int {
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	out := map[string]metric{}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, n := range names {
		m, ok := r.Metrics[n.name]
		if !ok {
			m = metric{Value: 0, Unit: n.unit}
		}
		if m.Unit != n.unit {
			r.fail("metric %s measured in %s, declared in %s", n.name, m.Unit, n.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s has no value: too few samples", n.name)
			m.Value = 0
		}
		out[n.name] = m
	}
	details := map[string]any{
		"host":     fingerprint(o.root),
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"details":  r.Details,
		"problems": r.Problems,
	}
	line, err := json.Marshal(details)
	if err != nil {
		r.fail("encoding details: %v", err)
	} else {
		fmt.Println(string(line))
	}
	printTable(out)
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Problems) == 0, r.Attempted, r.Failed, out}
	if result.Attempted < 1 {
		result.Attempted = 1
		result.Failed = 1
		result.Correct = false
	}
	line, err = json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

// printTable writes the metrics human-readably to standard error.
func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocBytes is the heap allocated by the whole process so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
