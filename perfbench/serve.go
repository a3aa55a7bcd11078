package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"wrsn/internal/daemon"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
)

// The serve-mixed traffic: an open loop at a fixed rate over a prefilled
// key space, with a fixed share of requests for keys never sent before.
// The rate and the hit share (19 in 20) are those of the daemon's clean
// load-generator run in EXPERIMENTS.md. prefillKeys plus the fresh keys
// of a run of up to 60 s stay below the daemon's default 1024-entry plan
// cache, so hits stay hits.
const (
	serveRate   = 200 // requests per second
	missEvery   = 20  // one fresh key per this many requests
	prefillKeys = 256
	serveLimit  = 10 * time.Millisecond // slo_frac's latency limit
)

var (
	deploySolvers = []string{"auto", "rfh-iterative", "idb", "local-search", "anneal"}
	placeSolvers  = []string{"greedy", "anneal"}
)

// request is one distinct plan request of the corpus.
type request struct {
	solver string
	body   []byte
	prob   *model.Problem      // deployment requests
	place  *placement.Instance // placement requests
	fresh  bool                // sent once, in the timed phase
}

// corpus is every input of a serve-mixed run, drawn from the seed.
type corpus struct {
	keys     []*request // prefilled
	schedule []*request // the timed phase's requests, in send order
}

// newCorpus draws the requests: about three quarters deployment problems
// of 6-50 posts, a quarter placement instances of 40 posts on 3x3 to 7x7
// candidate grids, each with a solver drawn from its family's list.
// Exactly one request in each block of missEvery is a fresh key.
func newCorpus(seed int64, seconds int) (*corpus, error) {
	rng := rand.New(rand.NewSource(mix(seed, 1<<20)))
	seen := map[string]bool{}
	draw := func(sh shape) (*request, error) {
		for {
			r, sig, err := drawRequest(rng, sh)
			if err != nil {
				return nil, err
			}
			if !seen[sig] {
				seen[sig] = true
				return r, nil
			}
		}
	}
	c := &corpus{}
	for _, sh := range stratify(rng, prefillKeys) {
		r, err := draw(sh)
		if err != nil {
			return nil, err
		}
		c.keys = append(c.keys, r)
	}
	n := serveRate * seconds
	fresh := stratify(rng, (n+missEvery-1)/missEvery)
	for block := 0; block < n; block += missEvery {
		at := block + rng.Intn(missEvery)
		for i := block; i < block+missEvery && i < n; i++ {
			if i != at {
				c.schedule = append(c.schedule, c.keys[rng.Intn(len(c.keys))])
				continue
			}
			r, err := draw(fresh[block/missEvery])
			if err != nil {
				return nil, err
			}
			r.fresh = true
			c.schedule = append(c.schedule, r)
		}
	}
	return c, nil
}

// shape fixes what a drawn request asks for: its family, a size quantile
// in [0, 1) and a solver index; the instance itself is random.
type shape struct {
	placement bool
	size      float64
	solver    int
}

// stratify spreads n keys evenly over family, size and solver, so that
// the prefill and the misses of one run cost about what another run's
// do: every fourth is a placement request, sizes are stratified (one per
// n-quantile band, in random order) and solvers rotate.
func stratify(rng *rand.Rand, n int) []shape {
	perm := rng.Perm(n)
	out := make([]shape, n)
	for j := range out {
		out[j] = shape{placement: j%4 == 3, size: (float64(perm[j]) + rng.Float64()) / float64(n), solver: j / 4}
	}
	return out
}

// drawRequest draws one request of the given shape and its identity
// (solver plus canonical instance signature, the daemon's cache key).
func drawRequest(rng *rand.Rand, sh shape) (*request, string, error) {
	instRng := rand.New(rand.NewSource(rng.Int63()))
	r := &request{}
	req := daemon.PlanRequest{}
	var inst model.Instance
	if !sh.placement {
		posts := 6 + int(sh.size*45)
		p, err := model.GenerateProblem(instRng, model.GenSpec{
			Field: geom.Square(60 * math.Sqrt(float64(posts))), Posts: posts, Nodes: posts * (2 + rng.Intn(3)),
		})
		if err != nil {
			return nil, "", err
		}
		r.solver = deploySolvers[sh.solver%len(deploySolvers)]
		r.prob, req.Problem, inst = p, p, p
	} else {
		spec := placement.DefaultSiteSpec()
		spec.Grid = 3 + int(sh.size*5)
		pl, err := placement.Generate(instRng, placement.GenSpec{
			Field: geom.Square(400), Posts: 40, Sites: spec,
			DemandMean: []float64{0.6, 1.2, 1.8}[rng.Intn(3)], DemandJitter: 0.4,
		})
		if err != nil {
			return nil, "", err
		}
		r.solver = placeSolvers[sh.solver%len(placeSolvers)]
		r.place, req.Placement, inst = pl, pl, pl
	}
	req.Solver = r.solver
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	r.body = body
	sig, err := model.CanonicalSignature(inst)
	if err != nil {
		return nil, "", err
	}
	return r, r.solver + "|" + sig, nil
}

// served is one running in-process wrsnd with its client.
type served struct {
	srv    *daemon.Server
	url    string
	client *http.Client
	tr     *http.Transport
	done   chan error
	plans  map[*request]planRecord // prefilled plans
}

// planRecord is a validated response: its key and exact plan bytes.
type planRecord struct {
	key  string
	plan []byte
}

// startServer boots a default-config daemon on a loopback port and a
// client holding at most workers connections.
func startServer(ctx context.Context, cfg config) (*served, error) {
	dc := daemon.Config{}
	if cfg.inject > 0 {
		dc.Chaos = &engine.ChaosConfig{Seed: 1, LatencyFrac: 1, Latency: cfg.inject}
	}
	srv, err := daemon.NewServer(dc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, url: "http://" + ln.Addr().String() + "/v1/plan", done: make(chan error, 1),
		plans: map[*request]planRecord{}}
	// Serve's goroutines inherit the labels of the goroutine that starts
	// it, so server CPU samples carry role=server.
	pprof.Do(ctx, pprof.Labels("role", "server"), func(context.Context) {
		go func() { s.done <- srv.Serve(ln) }()
	})
	s.tr = &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 60 * time.Second}
	return s, nil
}

// stop drains the daemon and waits for Serve to return.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	serr := <-s.done
	s.tr.CloseIdleConnections()
	return errors.Join(derr, serr)
}

// post sends one request and reads the whole response.
func (s *served) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// validate checks one response to r: a 200 whose plan re-prices to its
// cost_bits (model.Evaluate on vector and tree for deployment plans, the
// reference evaluator for placement plans). It returns the decoded
// response.
func validate(r *request, status int, body []byte) (*daemon.PlanResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp daemon.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.Solver != r.solver {
		return nil, fmt.Errorf("response names solver %q, want %q", resp.Solver, r.solver)
	}
	var plan daemon.Plan
	if err := json.Unmarshal(resp.Plan, &plan); err != nil {
		return nil, fmt.Errorf("decoding plan: %w", err)
	}
	var cost float64
	var err error
	switch {
	case r.prob != nil:
		if plan.Tree == nil {
			return nil, errors.New("deployment plan without a tree")
		}
		cost, err = model.Evaluate(r.prob, plan.Vector, *plan.Tree)
	default:
		var ref *placement.ReferenceEvaluator
		if ref, err = placement.NewReferenceEvaluator(r.place); err == nil {
			cost, err = ref.Cost(plan.Vector)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("re-pricing plan: %w", err)
	}
	if math.Float64bits(cost) != plan.CostBits || math.Float64bits(plan.Cost) != plan.CostBits {
		return nil, fmt.Errorf("plan cost_bits %x, cost %v, re-priced %v", plan.CostBits, plan.Cost, cost)
	}
	return &resp, nil
}

// prefill sends every key once over workers connections, validating each
// plan and keeping its bytes, then warms the hit path.
func (s *served) prefill(c *corpus, workers int) error {
	var mu sync.Mutex
	var firstErr error
	run := func(reqs []*request, record bool) {
		next := make(chan *request)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range next {
					status, body, err := s.post(r.body)
					var resp *daemon.PlanResponse
					if err == nil {
						resp, err = validate(r, status, body)
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("prefill: %w", err)
					}
					if err == nil && record {
						s.plans[r] = planRecord{key: resp.Key, plan: resp.Plan}
					}
					mu.Unlock()
				}
			}()
		}
		for _, r := range reqs {
			next <- r
		}
		close(next)
		wg.Wait()
	}
	run(c.keys, true)
	if firstErr != nil {
		return firstErr
	}
	run(append(append([]*request(nil), c.keys...), c.keys...), false)
	return firstErr
}

// sample is one timed request.
type sample struct {
	req             *request
	due, sent, done time.Time
	lag             time.Duration // how late the generator handed it over
	status          int
	body            []byte
	err             error
}

// openLoop sends schedule[i] at start + i/rate whether or not earlier
// requests have finished, through a fixed pool of workers senders; a
// request's latency runs from when it was due. send performs one request.
func openLoop(schedule []*request, rate float64, workers int, send func(*sample)) []sample {
	samples := make([]sample, len(schedule))
	// Sized to the number of sends, so the generator never blocks on a
	// stalled pool: a backlog shows as latency, not as a late schedule.
	work := make(chan int, len(schedule))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				samples[i].sent = time.Now()
				send(&samples[i])
				samples[i].done = time.Now()
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i, r := range schedule {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].req, samples[i].due, samples[i].lag = r, due, time.Since(due)
		work <- i
	}
	close(work)
	wg.Wait()
	return samples
}

// phase is one timed serve-mixed run's measurements.
type phase struct {
	samples    []sample
	heapPeakMB float64
	rtA, rtB   rtSample
	cpuA, cpuB time.Duration // process CPU time around the phase
}

func (s *served) timed(ctx context.Context, c *corpus, cfg config) *phase {
	ph := &phase{}
	heap := startHeapSampler()
	ph.rtA, ph.cpuA = readRuntime(), processCPU()
	pprof.Do(ctx, pprof.Labels("role", "client"), func(context.Context) {
		ph.samples = openLoop(c.schedule, serveRate, cfg.workers, func(sm *sample) {
			sm.status, sm.body, sm.err = s.post(sm.req.body)
		})
	})
	ph.rtB, ph.cpuB = readRuntime(), processCPU()
	ph.heapPeakMB = heap.stopPeak()
	return ph
}

// servedOut is a checked sample.
type servedOut struct {
	ok      bool
	hit     bool
	elapsed time.Duration // server-side, from the response
	resp    *daemon.PlanResponse
}

// check validates every sample: prefilled keys must return the exact
// plan bytes and key their prefill got (hit or, after an eviction,
// re-solved), fresh keys a miss whose plan re-prices exactly.
func (s *served) check(ph *phase, out *outcome) []servedOut {
	res := make([]servedOut, len(ph.samples))
	for i, sm := range ph.samples {
		out.attempted++
		fail := func(format string, args ...interface{}) {
			out.failed++
			if len(out.problems) < 20 {
				out.fail("request %d (%s): %s", i, sm.req.solver, fmt.Sprintf(format, args...))
			}
		}
		if sm.err != nil {
			fail("%v", sm.err)
			continue
		}
		var resp daemon.PlanResponse
		if sm.status != http.StatusOK || json.Unmarshal(sm.body, &resp) != nil {
			fail("status %d: %.200s", sm.status, sm.body)
			continue
		}
		if rec, ok := s.plans[sm.req]; ok {
			if resp.Key != rec.key || !bytes.Equal(resp.Plan, rec.plan) {
				fail("plan or key differs from the prefilled one")
				continue
			}
		} else {
			full, err := validate(sm.req, sm.status, sm.body)
			if err != nil {
				fail("%v", err)
				continue
			}
			if full.Cache != "miss" {
				fail("fresh key answered %q", full.Cache)
				continue
			}
		}
		res[i] = servedOut{ok: true, hit: resp.Cache == "hit", resp: &resp,
			elapsed: time.Duration(resp.ElapsedMS * float64(time.Millisecond))}
	}
	return res
}

// setupServe is one serve-mixed set-up: corpus, server, prefill and
// warm-up.
func setupServe(ctx context.Context, cfg config) (*corpus, *served, error) {
	c, err := newCorpus(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	s, err := startServer(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.prefill(c, cfg.workers); err != nil {
		return nil, nil, errors.Join(err, s.stop())
	}
	return c, s, nil
}

func runServeMixed(cfg config) (*outcome, error) {
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("workload", cfg.workload))
	out := &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}

	var c *corpus
	var s *served
	d, err := timeIt(func() (err error) {
		c, s, err = setupServe(ctx, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	setups := []float64{d.Seconds()}

	ph := s.timed(ctx, c, cfg)
	if err := s.stop(); err != nil {
		return nil, err
	}
	for len(setups) < setupRuns {
		var again *served
		d, err := timeIt(func() (err error) {
			_, again, err = setupServe(ctx, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := again.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("set-ups (s): %.4f\n", setups)
	out.e2e["setup_s"] = metric{medianFloat(setups), "s"}
	checked := s.check(ph, out)
	lat, okCount, inLimit := latencies(ph, checked)
	sum := summarize(lat)
	// The open loop fixes requests per wall second at the offered rate,
	// so throughput is counted per CPU second the process spent serving
	// and sending them.
	out.e2e["cells_per_s"] = metric{float64(okCount) / (ph.cpuB - ph.cpuA).Seconds(), "1/s"}
	out.e2e["plan_p50_ms"] = metric{ms(sum.P50), "ms"}
	out.layer["bench.plan_tail_ms"] = metric{ms(sum.Tail), "ms"}
	out.e2e["slo_frac"] = metric{float64(inLimit) / float64(len(ph.samples)), "fraction"}
	out.e2e["peak_heap_mb"] = metric{ph.heapPeakMB, "MB"}
	fmt.Printf("requests %d ok %d rate %d/s cpu %.3fs plan latency n=%d p50 %.2fms p%.1f %.2fms within %v: %d\n",
		len(ph.samples), okCount, serveRate, (ph.cpuB - ph.cpuA).Seconds(), sum.N, ms(sum.P50), sum.TailPc, ms(sum.Tail), serveLimit, inLimit)
	checkDigest(out, cfg, plansDigest(checked))
	if !cfg.trace {
		return out, nil
	}

	c2, s2, err := setupServe(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var tph *phase
	prof, err := profileDuring(cfg, func() { tph = s2.timed(ctx, c2, cfg) })
	if serr := s2.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	traced := &outcome{}
	tchecked := s2.check(tph, traced)
	out.attempted += traced.attempted
	out.failed += traced.failed
	out.problems = append(out.problems, traced.problems...)
	if plansDigest(tchecked) != plansDigest(checked) {
		out.failed++
		out.fail("traced phase served different plans than the untraced one")
	}
	for k, v := range prof {
		out.layer[k] = v
	}
	rec := newRecorder()
	if err := serveLayers(out, tph, tchecked, ph, rec); err != nil {
		return nil, err
	}
	if err := kernelPass(out.layer, largestDeployment(c2)); err != nil {
		return nil, err
	}
	if err := placementKernels(out.layer, largestPlacement(c2)); err != nil {
		return nil, err
	}
	fillMissing(out.layer)
	if err := rec.write(traceFile(cfg, "spans.jsonl")); err != nil {
		return nil, err
	}
	return out, nil
}

// latencies returns every sample's latency from when it was due, the
// count answered correctly, and the count answered correctly within
// serveLimit; a failed request misses the limit whatever its latency.
func latencies(ph *phase, checked []servedOut) ([]time.Duration, int, int) {
	lat := make([]time.Duration, len(ph.samples))
	ok, in := 0, 0
	for i, sm := range ph.samples {
		lat[i] = sm.done.Sub(sm.due)
		if checked[i].ok {
			ok++
			if lat[i] <= serveLimit {
				in++
			}
		}
	}
	return lat, ok, in
}

// serveLayers records the traced phase's spans and derives the daemon,
// solver, runtime and bench metrics. Solver time comes from re-solving
// every fresh key in-process, which also checks that the daemon's plan
// is the one a direct solve gives; the daemon's self time is its
// server-side time minus that solve time. A re-solve that disagrees with
// the daemon's plan is a failed request.
func serveLayers(out *outcome, ph *phase, checked []servedOut, untraced *phase, rec *recorder) error {
	into := out.layer
	var hit, miss, server, transport, lag []time.Duration
	var serverTotal time.Duration
	hits, ok := 0, 0
	for i, sm := range ph.samples {
		lag = append(lag, sm.lag)
		rec.add(0, 0, int64(i+1), "client.queue", sm.due, sm.sent)
		httpID := rec.id()
		if c := checked[i]; c.ok {
			ok++
			lat := sm.done.Sub(sm.due)
			if c.hit {
				hits++
				hit = append(hit, lat)
			} else {
				miss = append(miss, lat)
			}
			server = append(server, c.elapsed)
			serverTotal += c.elapsed
			transport = append(transport, sm.done.Sub(sm.sent)-c.elapsed)
			rec.add(0, httpID, int64(i+1), "daemon.server", sm.done.Add(-c.elapsed), sm.done)
		}
		rec.add(httpID, 0, int64(i+1), "client.http", sm.sent, sm.done)
	}
	hs, ms_, ss, ts, ls := summarize(hit), summarize(miss), summarize(server), summarize(transport), summarize(lag)
	into["daemon.hit_p50_ms"] = metric{ms(hs.P50), "ms"}
	into["daemon.hit_tail_ms"] = metric{ms(hs.Tail), "ms"}
	into["daemon.miss_p50_ms"] = metric{ms(ms_.P50), "ms"}
	into["daemon.miss_tail_ms"] = metric{ms(ms_.Tail), "ms"}
	into["daemon.server_p50_ms"] = metric{ms(ss.P50), "ms"}
	into["daemon.transport_p50_ms"] = metric{ms(ts.P50), "ms"}
	into["daemon.hit_rate"] = metric{float64(hits) / math.Max(1, float64(ok)), "fraction"}
	into["bench.lag_p99_ms"] = metric{ms(ls.Tail), "ms"}
	fmt.Printf("traced: hits n=%d p50 %.2fms p%.1f %.2fms; misses n=%d p50 %.2fms p%.1f %.2fms; lag p%.1f %.3fms\n",
		hs.N, ms(hs.P50), hs.TailPc, ms(hs.Tail), ms_.N, ms(ms_.P50), ms_.TailPc, ms(ms_.Tail), ls.TailPc, ms(ls.Tail))

	stats := map[string]*solverStat{}
	replayID := rec.id()
	replayStart := time.Now()
	var solveTotal time.Duration
	for i, sm := range ph.samples {
		c := checked[i]
		if !c.ok || c.hit || !sm.req.fresh {
			continue
		}
		var inst model.Instance = sm.req.prob
		if sm.req.place != nil {
			inst = sm.req.place
		}
		start := time.Now()
		res, err := engine.MustSolver(sm.req.solver)(context.Background(), inst)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("re-solving request %d: %w", i, err)
		}
		var plan daemon.Plan
		if err := json.Unmarshal(c.resp.Plan, &plan); err != nil {
			return err
		}
		if math.Float64bits(res.Cost) != plan.CostBits {
			out.failed++
			out.fail("request %d: daemon plan cost %v, direct %s solve %v", i, plan.Cost, sm.req.solver, res.Cost)
		}
		rec.add(0, replayID, int64(i+1), "solver."+sm.req.solver, start, end)
		st := stats[sm.req.solver]
		if st == nil {
			st = &solverStat{}
			stats[sm.req.solver] = st
		}
		st.calls++
		st.busy += end.Sub(start)
		st.evals += res.Evaluations
		solveTotal += end.Sub(start)
	}
	rec.add(replayID, 0, 0, "replay", replayStart, time.Now())
	solverMetrics(into, stats)
	into["daemon.self_s"] = metric{(serverTotal - solveTotal).Seconds(), "s"}

	cpu := func(p *phase) float64 { return (p.rtB.totalCPU - p.rtB.idleCPU) - (p.rtA.totalCPU - p.rtA.idleCPU) }
	into["bench.trace_overhead_frac"] = metric{cpu(ph)/cpu(untraced) - 1, "fraction"}
	runtimeMetrics(ph.rtA, ph.rtB, into)
	return nil
}

func largestDeployment(c *corpus) *model.Problem {
	var best *model.Problem
	for _, r := range c.keys {
		if r.prob != nil && (best == nil || r.prob.N() > best.N()) {
			best = r.prob
		}
	}
	return best
}

func largestPlacement(c *corpus) *placement.Instance {
	var best *placement.Instance
	for _, r := range c.keys {
		if r.place != nil && (best == nil || len(r.place.Sites) > len(best.Sites)) {
			best = r.place
		}
	}
	return best
}
