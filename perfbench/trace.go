package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer, kept in memory. Spans of one cell
// or request share its id; the span named by the tracer's whole is the
// cell or request itself, and every other span with that id is one of
// its parts.
type span struct {
	name       string
	id         int
	start, end time.Duration // offsets from the tracer's epoch
}

// tracer records spans from any goroutine.
type tracer struct {
	epoch time.Time
	whole string

	mu    sync.Mutex
	spans []span
}

func newTracer(whole string) *tracer { return &tracer{epoch: time.Now(), whole: whole} }

// now is the start offset for a span about to begin.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// end records the span name of cell or request id, begun at start.
func (t *tracer) end(name string, id int, start time.Duration) {
	e := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, start: start, end: e})
	t.mu.Unlock()
}

// total is the summed duration of every span called name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
		}
	}
	return sum
}

// meanMS is the summed duration of the spans called name divided by n, in
// milliseconds; 0 when n is 0.
func (t *tracer) meanMS(name string, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(t.total(name)) / float64(n)
}

// account compares each whole span with the sum of its parts. It returns,
// per id in order of first appearance, the whole's duration and the
// residual: the part of the whole no part span covers.
func (t *tracer) account() (wholes, residuals []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[int]int{}
	parts := []time.Duration{}
	for _, s := range t.spans {
		i, ok := idx[s.id]
		if !ok {
			i = len(wholes)
			idx[s.id] = i
			wholes = append(wholes, 0)
			parts = append(parts, 0)
		}
		if s.name == t.whole {
			wholes[i] = s.end - s.start
		} else {
			parts[i] += s.end - s.start
		}
	}
	residuals = make([]time.Duration, len(wholes))
	for i := range wholes {
		residuals[i] = wholes[i] - parts[i]
	}
	return wholes, residuals
}

// Residual bound for the accounting check: a whole may exceed its parts by
// at most this share plus residualSlack — the calls between spans, the
// stats fold and the span bookkeeping itself.
const (
	residualShare = 0.05
	residualSlack = 500 * time.Microsecond
)

// checkAccount fails the run for any whole whose parts miss it by more
// than the residual bound. It records the mean whole, the mean residual and
// the worst residual share in details, and sets the mean whole and mean
// residual as the named metrics, where names are given.
func checkAccount(r *report, t *tracer, wholeMetric, residualMetric string) {
	wholes, residuals := t.account()
	var sumW, sumR time.Duration
	worst := 0.0
	bad := 0
	for i, w := range wholes {
		sumW += w
		sumR += residuals[i]
		if w > 0 {
			if f := float64(residuals[i]) / float64(w); f > worst {
				worst = f
			}
		}
		if residuals[i] < 0 || residuals[i] > time.Duration(residualShare*float64(w))+residualSlack {
			bad++
		}
	}
	if bad > 0 {
		r.fail("accounting: %d of %d spans' parts miss their whole by more than %.0f%% + %v", bad, len(wholes), residualShare*100, residualSlack)
	}
	n := float64(max(1, len(wholes)))
	if wholeMetric != "" {
		r.set(wholeMetric, "ms", ms(sumW)/n)
		r.set(residualMetric, "ms", ms(sumR)/n)
	}
	r.Details["account_whole_mean_ms"] = ms(sumW) / n
	r.Details["account_residual_mean_ms"] = ms(sumR) / n
	r.Details["account_wholes"] = len(wholes)
	r.Details["account_residual_worst_share"] = worst
	r.Details["account_residual_bound"] = map[string]any{"share": residualShare, "slack_ms": ms(residualSlack)}
}

// gcFrac sets go.gc_cpu_frac: the share of the CPU time spent since
// gcCPU read gc0 and cpu0 that went to garbage collection.
func gcFrac(r *report, gc0, cpu0 float64) {
	if gc1, cpu1 := gcCPU(); cpu1 > cpu0 {
		r.set("go.gc_cpu_frac", "ratio", (gc1-gc0)/(cpu1-cpu0))
	}
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
