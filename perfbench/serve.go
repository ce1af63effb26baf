package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nda/internal/core"
	"nda/internal/harness"
	"nda/internal/load"
	"nda/internal/serve"
	"nda/internal/store"
	"nda/internal/tenant"
	"nda/internal/workload"
)

// Open-loop arrival rates, in requests per second. They are constants
// (README gives the reasons for their values), so a later change that
// speeds the server up meets the same offered load.
const (
	hotRate      = 2000 // serve-hot, over nproc connections
	mixedHotRate = 250  // serve-mixed's hot tenant, over one connection
)

// warmSetSize is how many distinct pre-warmed sweeps a serving run
// replays; each is one workload under two policies plus the in-order core.
const (
	warmSetSize  = 8
	cellsPerWarm = 3
)

// The serve-mixed tenants and their API keys.
var mixedTenants = []tenant.Tenant{{Name: "hot", Key: "hot-key"}, {Name: "batch", Key: "batch-key"}}

// server is an in-process ndaserve on loopback and a client that keeps at
// most conns connections open to it.
type server struct {
	base     string
	mgr      *serve.Manager
	shutdown func()
	client   *http.Client
	store    *store.Store // nil without a disk tier
	dir      string       // the store's temporary directory
}

// startServer starts the server as load.StartLocal does: serve.NewManager
// and serve.NewHandler on an ephemeral loopback port.
func startServer(cfg serve.Config, conns int) (*server, error) {
	base, mgr, shutdown, err := load.StartLocal(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &server{base: base, mgr: mgr, shutdown: shutdown, client: &http.Client{Transport: tr}, store: cfg.Store}, nil
}

// close stops the server, waits for its jobs to drain, and removes the
// store's directory.
func (s *server) close() {
	s.client.CloseIdleConnections()
	s.shutdown()
	if s.store != nil {
		_ = s.store.Close() // the directory is removed next
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// do sends one request and returns its status and drained body.
func (s *server) do(ctx context.Context, method, path, key string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// hotSweeps draws the warm set from seed: warmSetSize workloads, each
// under two distinct policies plus the in-order core, quick sampling. The
// workloads are a fixed spread of the SPEC proxies, so set-up costs about
// the same for every seed; the seed picks each one's policies.
func hotSweeps(seed int64) []serve.SweepRequest {
	rng := rand.New(rand.NewSource(seed))
	specs, pols := workload.SPEC(), core.All()
	var reqs []serve.SweepRequest
	for i := 0; i < warmSetSize; i++ {
		p := rng.Perm(len(pols))
		reqs = append(reqs, serve.SweepRequest{
			Workloads: []string{specs[i*len(specs)/warmSetSize].Name},
			Policies:  []string{pols[p[0]].Name, pols[p[1]].Name},
			Sampling:  serve.SamplingSpec{Quick: true},
		})
	}
	return reqs
}

// picks returns n seeded indices into the warm set: which sweep each
// request replays.
func picks(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(warmSetSize)
	}
	return out
}

func marshalAll(reqs []serve.SweepRequest) ([][]byte, error) {
	var out [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// hotSet is the warm set: request bodies and the bytes the set-up's own
// (computing) requests answered, which every later response must equal.
type hotSet struct {
	reqs   []serve.SweepRequest
	bodies [][]byte
	want   [][]byte
}

// warm sends each request of the set once as tenant key, recording its
// response.
func (h *hotSet) warm(ctx context.Context, s *server, key string) error {
	h.want = h.want[:0]
	for i, b := range h.bodies {
		code, got, err := s.do(ctx, http.MethodPost, "/v1/sweep?wait=1", key, b)
		if err != nil {
			return fmt.Errorf("warming sweep %d: %w", i, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("warming sweep %d: status %d: %s", i, code, got)
		}
		h.want = append(h.want, got)
	}
	return nil
}

// send replays warm sweep k as tenant key and checks the answer.
func (h *hotSet) send(ctx context.Context, s *server, key string, k int) error {
	code, got, err := s.do(ctx, http.MethodPost, "/v1/sweep?wait=1", key, h.bodies[k])
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, h.want[k]) {
		return errors.New("response differs from its warm-up response")
	}
	return nil
}

// tally counts a phase's outcomes from any goroutine.
type tally struct {
	mu       sync.Mutex
	n, fails int
	firstErr error
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	if err != nil {
		t.fails++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// into folds the tally into the report under label.
func (t *tally) into(r *report, label string) {
	r.Attempted += t.n
	r.Failed += t.fails
	if t.fails > 0 {
		r.fail("%s: %d of %d requests failed, first: %v", label, t.fails, t.n, t.firstErr)
	}
}

// setupServers runs newServer setupRepeats times, keeping the last keep
// servers and closing the others, and checks each set-up's warm responses
// equal the first's.
func setupServers(r *report, h *hotSet, keep int, newServer func() (*server, error)) ([]*server, error) {
	var servers []*server
	var first [][]byte
	err := timedSetup(r, func() error {
		if len(servers) == keep {
			servers[0].close()
			servers[0], servers = nil, servers[1:]
		}
		s, err := newServer()
		if err != nil {
			return err
		}
		servers = append(servers, s)
		if first == nil {
			first = append([][]byte(nil), h.want...)
			return nil
		}
		for i := range first {
			if !bytes.Equal(first[i], h.want[i]) {
				return fmt.Errorf("warm sweep %d answered differently on a fresh server", i)
			}
		}
		return nil
	})
	if err != nil {
		for _, s := range servers {
			s.close()
		}
		return nil, err
	}
	return servers, nil
}

func newHotSet(seed int64) (*hotSet, error) {
	reqs := hotSweeps(seed)
	bodies, err := marshalAll(reqs)
	if err != nil {
		return nil, err
	}
	return &hotSet{reqs: reqs, bodies: bodies}, nil
}

// --- serve-hot ------------------------------------------------------------

// hotServer starts a single-tenant server and warms its RAM cache.
func hotServer(ctx context.Context, o opts, h *hotSet) (*server, error) {
	s, err := startServer(serve.Config{SimWorkers: o.workers}, o.workers)
	if err != nil {
		return nil, err
	}
	if err := h.warm(ctx, s, ""); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve-hot gives hotClosedShare of its time to the closed loop and the
// rest to the open loop. The closed loop sends a fixed number of requests,
// what hotClosedShare of the time holds at hotClosedRef req/s (the
// reference host's capacity). The server keeps every job, so its heap, and
// with it the GC's work, grows with each request; a fixed count gives every
// run the same heap trajectory, whatever the host's speed.
const (
	hotClosedShare = 0.3
	hotClosedRef   = 9000
)

// closedHot runs the closed loop over every connection until d has passed
// or, when n > 0, n requests have been sent, and returns each request's
// round trip and the phase's length.
func closedHot(ctx context.Context, o opts, s *server, h *hotSet, d time.Duration, n int, t *tally, pick []int) (rtt []time.Duration, dur time.Duration) {
	var mu sync.Mutex
	dur, _ = runClosed(ctx, d, n, o.workers, func(_, seq int) {
		t0 := time.Now()
		err := h.send(ctx, s, "", pick[seq%len(pick)])
		el := time.Since(t0)
		t.add(err)
		mu.Lock()
		rtt = append(rtt, el)
		mu.Unlock()
	})
	return rtt, dur
}

func (res openResult) tallyInto(t *tally) {
	for _, err := range res.Err {
		t.add(err)
	}
}

func runServeHot(ctx context.Context, o opts, r *report) error {
	h, err := newHotSet(o.seed)
	if err != nil {
		return err
	}
	// Each phase gets a server of its own, fresh from set-up: the server
	// keeps every job it ran, and with them a heap whose GC work grows
	// with each request, so a phase on a used server would measure how
	// much traffic came before it.
	servers, err := setupServers(r, h, 2, func() (*server, error) { return hotServer(ctx, o, h) })
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range servers {
			s.close()
		}
	}()
	pick := picks(o.seed, 1<<16)
	total := time.Duration(o.seconds * float64(time.Second))
	closedN := int(hotClosedShare * o.seconds * hotClosedRef)

	var closedT, openT tally
	runtime.GC()
	a0 := allocBytes()
	due := schedule(o.seed, hotRate, time.Duration((1-hotClosedShare)*float64(total)))
	res := runOpen(ctx, due, o.workers, func(i int) error { return h.send(ctx, servers[0], "", pick[i%len(pick)]) })
	alloc := allocBytes() - a0
	res.tallyInto(&openT)
	servers[0].close()
	servers[0], servers = nil, servers[1:] // let the closed server's jobs be collected

	runtime.GC()
	a0 = allocBytes()
	// The count ends the closed loop; the time limit only guards a host
	// far slower than the reference.
	rtt, dur := closedHot(ctx, o, servers[0], h, 4*total, closedN, &closedT, pick)
	alloc += allocBytes() - a0
	closedT.into(r, "closed loop")
	openT.into(r, "open loop")

	ok := float64(closedT.n - closedT.fails)
	r.set("capacity_rps", "1/s", ok/dur.Seconds())
	r.set("cells_per_s", "1/s", ok*cellsPerWarm/dur.Seconds())
	r.set("alloc_kb_per_op", "KiB", float64(alloc)/float64(closedT.n+openT.n)/1024)
	groupLatency(r, chunk(res, latencyGroup))
	late, _ := percentile(msAll(res.Late), 0.99)
	r.Details["closed_requests"] = closedT.n
	r.Details["closed_s"] = dur.Seconds()
	r.Details["closed_rtt_p50_ms"] = median(msAll(rtt))
	r.Details["open_rate_rps"] = float64(hotRate)
	r.Details["open_arrivals"] = len(due)
	r.Details["gen_late_p99_ms"] = late
	return nil
}

// counters is a snapshot of the serving counters the traced runs difference.
type counters struct {
	ramHits, misses, sims int64
	store                 store.Counters
}

func snapshot(s *server) counters {
	m := s.mgr.Metrics()
	c := counters{
		ramHits: m.CacheHits.Load() - m.CacheDiskHits.Load(),
		misses:  m.CacheMisses.Load(),
		sims:    m.Simulations.Load(),
	}
	if s.store != nil {
		c.store = s.store.Counters()
	}
	return c
}

// tierMetrics sets the cache-tier counts between two snapshots.
func tierMetrics(r *report, a, b counters) {
	ram, miss := b.ramHits-a.ramHits, b.misses-a.misses
	if ram+miss > 0 {
		r.set("serve.ram_hit_ratio", "ratio", float64(ram)/float64(ram+miss))
	}
	r.set("serve.tier_computed", "count", float64(miss))
}

// storeMetrics sets the simulation and store counts between two snapshots.
func storeMetrics(r *report, a, b counters) {
	r.set("serve.sims", "count", float64(b.sims-a.sims))
	r.set("store.puts", "count", float64(b.store.Puts-a.store.Puts))
	r.set("store.put_errors", "count", float64(b.store.PutErrors-a.store.PutErrors))
	r.set("store.bytes", "bytes", float64(b.store.Bytes-a.store.Bytes))
}

// tenantSampler polls the scheduler's per-tenant gauges until stopped.
type tenantSampler struct {
	stop chan struct{}
	done chan struct{}

	queued, running []float64
	admitted0       uint64
	admitted1       uint64
	start           time.Time
	elapsed         time.Duration
}

func sumAdmitted(st []tenant.Stats) (q, run int, adm uint64) {
	for _, s := range st {
		q += s.Queued
		run += s.Running
		adm += s.Admitted
	}
	return q, run, adm
}

// sampleTenants starts polling m every 5 ms.
func sampleTenants(m *serve.Manager) *tenantSampler {
	ts := &tenantSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	_, _, ts.admitted0 = sumAdmitted(m.TenantStats())
	go func() {
		defer close(ts.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ts.stop:
				_, _, ts.admitted1 = sumAdmitted(m.TenantStats())
				ts.elapsed = time.Since(ts.start)
				return
			case <-tick.C:
				q, run, _ := sumAdmitted(m.TenantStats())
				ts.queued = append(ts.queued, float64(q))
				ts.running = append(ts.running, float64(run))
			}
		}
	}()
	return ts
}

// finish stops the sampler and sets the scheduler metrics; the wait is
// Little's law over the sampled queue length and the admission rate.
func (ts *tenantSampler) finish(r *report) {
	close(ts.stop)
	<-ts.done
	q := mean(ts.queued)
	r.set("tenant.queued_mean", "count", q)
	r.set("tenant.running_mean", "count", mean(ts.running))
	if rate := float64(ts.admitted1-ts.admitted0) / ts.elapsed.Seconds(); rate > 0 {
		r.set("tenant.wait_ms_est", "ms", q/rate*1000)
	}
	r.Details["tenant_samples"] = len(ts.queued)
}

func traceServeHot(ctx context.Context, o opts, r *report) error {
	h, err := newHotSet(o.seed)
	if err != nil {
		return err
	}
	// As in the untraced run, every phase gets a fresh server.
	fresh := func() (*server, error) {
		runtime.GC()
		return hotServer(ctx, o, h)
	}
	pick := picks(o.seed, 1<<16)
	total := time.Duration(o.seconds * float64(time.Second))
	n := int(hotClosedShare * o.seconds * hotClosedRef / 2)

	// A short open loop at the workload's rate, for the generator's lateness.
	s, err := fresh()
	if err != nil {
		return err
	}
	var openT tally
	res := runOpen(ctx, schedule(o.seed, hotRate, total/5), o.workers, func(i int) error { return h.send(ctx, s, "", pick[i%len(pick)]) })
	s.close()
	res.tallyInto(&openT)
	openT.into(r, "open loop")

	// Untraced reference: the closed loop alone.
	if s, err = fresh(); err != nil {
		return err
	}
	var refT tally
	refRTT, _ := closedHot(ctx, o, s, h, 4*total, n, &refT, pick)
	s.close()
	refT.into(r, "untraced closed loop")

	// Traced closed loop over as many requests: every request over HTTP,
	// then the same request in-process through the manager.
	if s, err = fresh(); err != nil {
		return err
	}
	defer s.close()
	type pair struct{ rtt, direct, status time.Duration }
	var (
		mu      sync.Mutex
		pairs   []pair
		bytesN  int
		tracedT tally
	)
	c0 := snapshot(s)
	ts := sampleTenants(s.mgr)
	gc0, cpu0 := gcCPU()
	runClosed(ctx, 4*total, n, o.workers, func(_, seq int) {
		k := pick[seq%len(pick)]
		t0 := time.Now()
		err := h.send(ctx, s, "", k)
		rtt := time.Since(t0)
		if err == nil {
			var direct, status time.Duration
			direct, status, err = directSweep(ctx, s.mgr, h.reqs[k], h.want[k])
			mu.Lock()
			pairs = append(pairs, pair{rtt, direct, status})
			bytesN += len(h.want[k])
			mu.Unlock()
		}
		tracedT.add(err)
	})
	gcFrac(r, gc0, cpu0)
	ts.finish(r)
	tierMetrics(r, c0, snapshot(s))
	tracedT.into(r, "traced closed loop")

	var rtt, direct, over, status []float64
	for _, p := range pairs {
		rtt = append(rtt, ms(p.rtt))
		direct = append(direct, ms(p.direct))
		over = append(over, ms(p.rtt-p.direct))
		status = append(status, float64(p.status)/float64(time.Microsecond))
	}
	// Per request, overhead + direct = rtt by definition; the check that
	// carries information is that the HTTP path, which contains the
	// in-process path, costs more on average.
	if len(pairs) > 0 && mean(over) < 0 {
		r.fail("accounting: the in-process path (%.3f ms) costs more than the HTTP path containing it (%.3f ms)", mean(direct), mean(rtt))
	}
	r.set("http.rtt_ms", "ms", mean(rtt))
	r.set("serve.direct_ms", "ms", mean(direct))
	r.set("http.overhead_ms", "ms", mean(over))
	r.set("serve.status_json_us", "us", mean(status))
	if len(pairs) > 0 {
		r.set("serve.result_bytes", "bytes", float64(bytesN)/float64(len(pairs)))
	}
	late, _ := percentile(msAll(res.Late), 0.99)
	r.set("gen.late_p99_ms", "ms", late)
	r.set("trace.overhead_frac", "ratio", mean(rtt)/mean(msAll(refRTT))-1)
	r.Details["traced_pairs"] = len(pairs)
	return storePhase(ctx, o, h, total/4, r)
}

// directSweep runs req in-process — SubmitSweep, Wait, Result — and checks
// the result bytes; it returns that path's time and the time of the job's
// first status marshal.
func directSweep(ctx context.Context, m *serve.Manager, req serve.SweepRequest, want []byte) (direct, status time.Duration, err error) {
	t0 := time.Now()
	j, err := m.SubmitSweep(req)
	if err != nil {
		return 0, 0, err
	}
	if err := j.Wait(ctx); err != nil {
		return 0, 0, err
	}
	res, ok := j.Result()
	direct = time.Since(t0)
	if !ok {
		return direct, 0, fmt.Errorf("in-process job ended %s", j.Status().State)
	}
	if !bytes.Equal(res, want) {
		return direct, 0, errors.New("in-process result differs from the HTTP warm-up response")
	}
	t1 := time.Now()
	_ = j.StatusJSON()
	return direct, time.Since(t1), nil
}

// --- serve-mixed ----------------------------------------------------------

// mixedServer starts a tenanted server with a persistent store in a fresh
// temporary directory and warms the hot tenant's sweeps.
func mixedServer(ctx context.Context, o opts, h *hotSet) (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s, err := startServer(serve.Config{SimWorkers: 1, Store: st, Tenants: mixedTenants}, o.workers)
	if err != nil {
		_ = st.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s.dir = dir
	if err := h.warm(ctx, s, mixedTenants[0].Key); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// batchSweep is the batch tenant's request seq: every workload under one
// policy, with a warm-up one instruction longer than any earlier request's
// so each of its cells is new to every cache tier. The seed picks where in
// the policy rotation the run starts.
func batchSweep(seed int64, seq int) serve.SweepRequest {
	pols := core.All()
	pol := pols[(uint64(seed)+uint64(seq))%uint64(len(pols))]
	return serve.SweepRequest{
		Policies:  []string{pol.Name},
		NoInOrder: true,
		Sampling:  serve.SamplingSpec{Quick: true, WarmInsts: harness.Quick().WarmInsts + 1 + uint64(seq)},
	}
}

// batchCells is the cell count of every batch request.
func batchCells() int { return len(workload.SPEC()) }

// runBatch submits one batch sweep asynchronously, follows its progress
// over SSE until done, fetches the result, and checks that every cell was
// computed. t, when non-nil, records the three steps as parts of the
// request id.
func runBatch(ctx context.Context, s *server, req serve.SweepRequest, t *tracer, id int) error {
	key := mixedTenants[1].Key
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var whole, sp time.Duration
	if t != nil {
		whole, sp = t.now(), t.now()
	}
	code, b, err := s.do(ctx, http.MethodPost, "/v1/sweep", key, body)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", code, b)
	}
	var st serve.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if t != nil {
		t.end("http.submit", id, sp)
		sp = t.now()
	}
	final, err := follow(ctx, s, st.ID, key)
	if err != nil {
		return err
	}
	if t != nil {
		t.end("serve.stream", id, sp)
		sp = t.now()
	}
	code, b, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", key, nil)
	if t != nil {
		t.end("http.result", id, sp)
		t.end("batch.request", id, whole)
	}
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("result: status %d: %s", code, b)
	}
	n := int64(batchCells())
	if final.State != serve.JobDone || final.TotalCells != n || final.Tiers.Computed != n || final.Tiers.RAM+final.Tiers.Disk+final.Tiers.FleetShared != 0 {
		return fmt.Errorf("batch job %s: state %s, %d cells, tiers %+v; want every one of %d cells computed", st.ID, final.State, final.TotalCells, final.Tiers, n)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil || resp.Sweep == nil {
		return fmt.Errorf("batch job %s: undecodable result", st.ID)
	}
	for _, w := range resp.Sweep.Workloads {
		if resp.Sweep.Get(req.Policies[0], w) == nil {
			return fmt.Errorf("batch job %s: no %s cell for %s", st.ID, req.Policies[0], w)
		}
	}
	return nil
}

// follow reads the job's SSE stream to its done event and returns the
// last status the stream carried.
func follow(ctx context.Context, s *server, id, key string) (serve.Status, error) {
	var last serve.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"?stream=1", nil)
	if err != nil {
		return last, err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := s.client.Do(req)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "progress":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				return last, fmt.Errorf("stream: %w", err)
			}
		case line == "" && event == "done":
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("stream: %w", err)
	}
	return last, errors.New("stream: ended before the done event")
}

// mixedOut is what one serve-mixed phase observed.
type mixedOut struct {
	hot          openResult
	hotT, batchT tally
	batchDone    []time.Duration // batch completion offsets
	batchOK      int
	nextSeq      int // the next phase's first batch request number
}

// batchSecs is each batch request's time: on one closed-loop connection,
// the gap between consecutive completions.
func (m *mixedOut) batchSecs() []float64 {
	g := gaps(m.batchDone)
	secs := make([]float64, len(g))
	for i, d := range g {
		secs[i] = d.Seconds()
	}
	return secs
}

// batchRate is the batch tenant's cells per second, from its median
// request time.
func batchRate(secs []float64) float64 { return float64(batchCells()) / median(secs) }

// mixedPhase runs both tenants for d: hot replays the warm set open-loop
// on one connection, batch runs fresh sweeps closed-loop on another.
// Batch request numbers start at seq0 so no two phases share a cell.
func mixedPhase(ctx context.Context, o opts, s *server, h *hotSet, d time.Duration, seq0 int, t *tracer) *mixedOut {
	out := &mixedOut{}
	pick := picks(o.seed, 1<<16)
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, out.batchDone = runClosed(ctx, d, 0, 1, func(_, seq int) {
			err := runBatch(ctx, s, batchSweep(o.seed, seq0+seq), t, seq0+seq)
			out.batchT.add(err)
			if err == nil {
				mu.Lock()
				out.batchOK++
				mu.Unlock()
			}
		})
	}()
	due := schedule(o.seed+int64(seq0), mixedHotRate, d)
	out.hot = runOpen(ctx, due, 1, func(i int) error { return h.send(ctx, s, mixedTenants[0].Key, pick[i%len(pick)]) })
	wg.Wait()
	out.hot.tallyInto(&out.hotT)
	out.nextSeq = seq0 + out.batchT.n
	return out
}

func runServeMixed(ctx context.Context, o opts, r *report) error {
	h, err := newHotSet(o.seed)
	if err != nil {
		return err
	}
	servers, err := setupServers(r, h, 1, func() (*server, error) { return mixedServer(ctx, o, h) })
	if err != nil {
		return err
	}
	s := servers[0]
	defer s.close()
	runtime.GC()
	a0 := allocBytes()
	out := mixedPhase(ctx, o, s, h, time.Duration(o.seconds*float64(time.Second)), 0, nil)
	alloc := allocBytes() - a0
	out.hotT.into(r, "hot tenant")
	out.batchT.into(r, "batch tenant")

	rate := batchRate(out.batchSecs())
	r.set("cells_per_s", "1/s", rate)
	r.set("capacity_rps", "1/s", rate/float64(batchCells()))
	r.set("alloc_kb_per_op", "KiB", float64(alloc)/float64(out.hotT.n+out.batchT.n)/1024)
	groupLatency(r, chunk(out.hot, latencyGroup))
	late, _ := percentile(msAll(out.hot.Late), 0.99)
	r.Details["hot_rate_rps"] = float64(mixedHotRate)
	r.Details["hot_requests"] = out.hotT.n
	r.Details["batch_requests"] = out.batchT.n
	r.Details["gen_late_p99_ms"] = late
	return nil
}

func traceServeMixed(ctx context.Context, o opts, r *report) error {
	h, err := newHotSet(o.seed)
	if err != nil {
		return err
	}
	// The untraced reference and the traced phase each get a fresh server.
	s, err := mixedServer(ctx, o, h)
	if err != nil {
		return err
	}
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	ref := mixedPhase(ctx, o, s, h, half, 0, nil)
	s.close()
	ref.hotT.into(r, "untraced hot tenant")
	ref.batchT.into(r, "untraced batch tenant")

	runtime.GC()
	if s, err = mixedServer(ctx, o, h); err != nil {
		return err
	}
	defer s.close()

	t := newTracer("batch.request")
	c0 := snapshot(s)
	ts := sampleTenants(s.mgr)
	gc0, cpu0 := gcCPU()
	out := mixedPhase(ctx, o, s, h, half, ref.nextSeq, t)
	gcFrac(r, gc0, cpu0)
	ts.finish(r)
	c1 := snapshot(s)
	tierMetrics(r, c0, c1)
	storeMetrics(r, c0, c1)
	out.hotT.into(r, "hot tenant")
	out.batchT.into(r, "batch tenant")
	checkAccount(r, t, "", "")

	var rtt []float64
	for i, err := range out.hot.Err {
		if err == nil {
			rtt = append(rtt, ms(out.hot.Latency[i]-out.hot.Late[i]))
		}
	}
	r.set("http.rtt_ms", "ms", mean(rtt))
	late, _ := percentile(msAll(out.hot.Late), 0.99)
	r.set("gen.late_p99_ms", "ms", late)
	if err := storeProbe(r, s.store, out.batchOK); err != nil {
		return err
	}
	r.set("trace.overhead_frac", "ratio", batchRate(ref.batchSecs())/batchRate(out.batchSecs())-1)
	r.Details["batch_requests"] = out.batchT.n
	return nil
}

// storePhase accounts for the scheduler-and-store layer from serve-hot's
// traced run: a serve-mixed phase of length d on a fresh tenanted server
// with a store, whose simulations and store writes it counts and whose
// store it probes. serve-mixed is not in the gated workload set (README),
// and this keeps the layer measured by a workload that is.
func storePhase(ctx context.Context, o opts, h *hotSet, d time.Duration, r *report) error {
	runtime.GC()
	s, err := mixedServer(ctx, o, h)
	if err != nil {
		return err
	}
	defer s.close()
	c0 := snapshot(s)
	out := mixedPhase(ctx, o, s, h, d, 0, nil)
	storeMetrics(r, c0, snapshot(s))
	out.hotT.into(r, "store phase, hot tenant")
	out.batchT.into(r, "store phase, batch tenant")
	return storeProbe(r, s.store, out.batchOK)
}

// storeProbe sets store.put_ms and store.get_ms: it times store.Put and
// store.Get on the run's store, the calls the serving layer makes for
// every computed cell, with a value the size of one encoded cell result.
// The probe keys cannot collide with the serving layer's content
// addresses.
func storeProbe(r *report, st *store.Store, n int) error {
	n = max(n, 16)
	val, err := json.Marshal(harness.Measurement{Workload: "perlbench", Config: "OoO"})
	if err != nil {
		return err
	}
	var put, get time.Duration
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("perfbench-probe/%d", i)
		t0 := time.Now()
		st.Put(key, val)
		t1 := time.Now()
		got, ok := st.Get(key)
		get += time.Since(t1)
		put += t1.Sub(t0)
		if !ok || !bytes.Equal(got, val) {
			return fmt.Errorf("store probe %d: value not read back", i)
		}
	}
	r.set("store.put_ms", "ms", ms(put)/float64(n))
	r.set("store.get_ms", "ms", ms(get)/float64(n))
	return nil
}

// latencyGroup is how many consecutive arrivals form one latency group:
// the fewest that place a p99 with minTail samples beyond it.
const latencyGroup = 100 * minTail

// chunk splits an open-loop phase into groups of size consecutive
// arrivals; a remainder shorter than size joins the last group.
func chunk(res openResult, size int) []openResult {
	var out []openResult
	for lo := 0; lo < len(res.Err); lo += size {
		hi := lo + size
		if len(res.Err)-hi < size {
			hi = len(res.Err)
		}
		out = append(out, openResult{Latency: res.Latency[lo:hi], Late: res.Late[lo:hi], Err: res.Err[lo:hi]})
		if hi == len(res.Err) {
			break
		}
	}
	return out
}
