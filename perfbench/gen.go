package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// schedule returns the due times, as offsets from the phase start, of a
// Poisson arrival process at rate arrivals per second over d. The same
// seed always gives the same schedule.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// openResult is what an open-loop phase observed, one slot per arrival.
type openResult struct {
	// Latency runs from each arrival's due time to its completion, so a
	// stall is charged to every request that was due during it.
	Latency []time.Duration
	// Late is how long after its due time each request was sent.
	Late []time.Duration
	// Err holds each request's error; a request never sent (the run's
	// hard deadline passed first) holds the context's error.
	Err []error
}

// runOpen sends one request per due time over conns connections. A
// connection takes the earliest unsent arrival, waits for its due time if
// it is early, and sends it; an arrival that finds every connection busy
// waits in order and is sent late, never dropped. do issues arrival i.
func runOpen(ctx context.Context, due []time.Duration, conns int, do func(i int) error) openResult {
	res := openResult{
		Latency: make([]time.Duration, len(due)),
		Late:    make([]time.Duration, len(due)),
		Err:     make([]error, len(due)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if err := sleepUntil(ctx, at); err != nil {
					res.Err[i] = err
					continue
				}
				res.Late[i] = time.Since(at)
				res.Err[i] = do(i)
				res.Latency[i] = time.Since(at)
			}
		}()
	}
	wg.Wait()
	return res
}

// sleepUntil waits until t or until ctx ends, whichever is first.
func sleepUntil(ctx context.Context, t time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runClosed runs conns loops, each sending its next request as soon as the
// previous one returns, until d has passed since the phase started or, when
// n > 0, n requests have been sent. do issues request seq on connection c.
// It returns the phase's length, from its start to the last completion,
// and each request's completion time as an offset from the start, in
// completion order.
func runClosed(ctx context.Context, d time.Duration, n, conns int, do func(c, seq int)) (time.Duration, []time.Duration) {
	var (
		wg   sync.WaitGroup
		seq  atomic.Int64
		mu   sync.Mutex
		done []time.Duration
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < d {
				i := int(seq.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				do(c, i)
				at := time.Since(start)
				mu.Lock()
				done = append(done, at)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), done
}

// gaps returns the intervals between consecutive completion offsets, the
// first measured from 0: on one closed-loop connection, each request's
// time.
func gaps(done []time.Duration) []time.Duration {
	out := make([]time.Duration, len(done))
	prev := time.Duration(0)
	for i, at := range done {
		out[i] = at - prev
		prev = at
	}
	return out
}
