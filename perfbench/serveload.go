package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rnrsim"
	"rnrsim/internal/cluster"
	"rnrsim/internal/serve"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// The serve workload drives a closed loop of serveClients clients, each
// posting POST /v1/runs?wait=1 and sending its next request only when the
// previous one has returned. Phase A targets one rnrd with two job
// workers; phase B a cluster coordinator in front of two rnrd workers with
// one job worker each. The phases alternate in slices. Both replay the
// same request streams, so every spec's state hash is checked against the
// other phase's independent daemon.
const (
	serveClients = 2
	// clusterWorkers rnrd workers with one job worker each give phase B
	// the simulation capacity phase A's single rnrd has.
	clusterWorkers = 2
	// hitShare is the share of requests that resubmit a job the same
	// client already finished, served from the content-addressed store.
	// It is a chosen value, not a measured one: no record of real traffic
	// exists to draw it from. It sets how many hit samples each fresh job
	// brings (four at 0.8), not how the clients spend their time: a hit
	// takes under 1 ms against about 170 ms for a fresh job, so at any
	// share up to 0.8 each client is in a fresh job over 98% of the time,
	// and the two clients' fresh jobs overlap about as often as they
	// would with no hits at all.
	hitShare = 0.8
	// minFreshPerPhase keeps each phase going until the fresh-job p90
	// has at least ten samples beyond it.
	minFreshPerPhase = 110
	// maxPhase caps a phase whose fresh jobs run far slower than usual.
	maxPhase = 60 * time.Second
	// slicesPerPhase is how many alternating slices each phase's half of
	// the time is cut into.
	slicesPerPhase = 4
	// Fresh specs are pagerank/urand under RnR with distinct window
	// sizes drawn from [winBase, winBase+winSpan): every fresh job is a
	// new simulation of similar cost.
	winBase = 64
	winSpan = 4000
	// streamLen bounds one client's request stream, far beyond what a
	// phase consumes.
	streamLen = 4000
)

// warmSpec is submitted to every daemon during set-up, so input builds
// and first-use costs land there and not in the timed phase.
var warmSpec = serve.RunSpec{Workload: "pagerank", Input: "urand", Prefetcher: "rnr", Scale: "test"}

// request is one step of a client's stream.
type request struct {
	spec  serve.RunSpec
	fresh bool
}

// genStreams derives every client's request stream from the seed: a fresh
// spec takes the client's next unused window size, a hit resubmits one of
// the client's earlier fresh specs.
func genStreams(seed int64) [][]request {
	rng := rand.New(rand.NewSource(seed))
	wins := rng.Perm(winSpan)
	streams := make([][]request, serveClients)
	for c := range streams {
		var fresh []serve.RunSpec
		next := c
		for len(streams[c]) < streamLen && next < len(wins) {
			if len(fresh) > 0 && rng.Float64() < hitShare {
				streams[c] = append(streams[c], request{spec: fresh[rng.Intn(len(fresh))]})
				continue
			}
			sp := serve.RunSpec{
				Workload: "pagerank", Input: "urand", Prefetcher: "rnr", Scale: "test",
				Variant: "win" + strconv.Itoa(winBase+wins[next]),
			}
			next += serveClients
			fresh = append(fresh, sp)
			streams[c] = append(streams[c], request{spec: sp, fresh: true})
		}
	}
	return streams
}

// daemon is one in-process rnrd: a serve.Manager behind its HTTP server
// on a loopback port.
type daemon struct {
	m    *serve.Manager
	reg  *telemetry.Registry
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

func startDaemon(id string, workers int) (*daemon, error) {
	reg := telemetry.NewRegistry()
	m := serve.NewManager(serve.Options{
		DefaultScale: "test", Workers: workers, WorkerID: id, Parallelism: 1, Registry: reg,
	})
	srv, url, done, err := listen(serve.NewServer(m))
	if err != nil {
		_ = m.Shutdown(context.Background())
		return nil, err
	}
	return &daemon{m: m, reg: reg, srv: srv, url: url, done: done}, nil
}

func (d *daemon) close(ctx context.Context) {
	_ = d.srv.Shutdown(ctx) // a benchmark teardown has nobody to report to
	<-d.done
	_ = d.m.Shutdown(ctx)
}

// counter reads one telemetry counter from a registry.
func counter(reg *telemetry.Registry, name string) float64 {
	for _, m := range reg.Snapshot(0) {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

type serveInstance struct {
	o      runOpts
	tr     *tracer
	client *http.Client

	single    *daemon // phase A
	workers   []*daemon
	coord     *cluster.Coordinator
	coordSrv  *http.Server
	coordURL  string
	coordDone chan struct{}
	nextReq   atomic.Int64
}

// setupServe starts both tiers, joins the cluster workers over HTTP and
// sends the warm-up spec to every daemon and through the coordinator.
func setupServe(ctx context.Context, o runOpts, tr *tracer) (_ instance, err error) {
	si := &serveInstance{o: o, tr: tr, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
	}}}
	defer func() {
		if err != nil {
			si.close()
		}
	}()
	if tr != nil {
		// The daemons build their input on the first job; build it once
		// here too so the traced run can report the build alone.
		t0 := time.Now()
		if _, err := rnrsim.BuildWorkload(warmSpec.Workload, warmSpec.Input, rnrsim.ScaleTest); err != nil {
			return nil, err
		}
		tr.record(0, 0, 0, "apps.build", t0, time.Now())
	}
	if si.single, err = startDaemon("single", serveClients); err != nil {
		return nil, err
	}
	for i := 0; i < clusterWorkers; i++ {
		d, err := startDaemon(fmt.Sprintf("w%d", i+1), 1)
		if err != nil {
			return nil, err
		}
		si.workers = append(si.workers, d)
	}
	si.coord = cluster.NewCoordinator(cluster.Config{DefaultScale: "test", Registry: telemetry.NewRegistry()})
	if si.coordSrv, si.coordURL, si.coordDone, err = listen(cluster.NewServer(si.coord)); err != nil {
		return nil, err
	}
	for _, w := range si.workers {
		body := fmt.Sprintf(`{"id":%q,"url":%q}`, w.m.Options().WorkerID, w.url)
		if _, err := si.post(ctx, si.coordURL+"/v1/cluster/join", []byte(body)); err != nil {
			return nil, fmt.Errorf("join: %w", err)
		}
	}
	warm, _ := json.Marshal(warmSpec) // a RunSpec always marshals
	for _, base := range []string{si.single.url, si.workers[0].url, si.workers[1].url, si.coordURL, si.single.url} {
		if _, err := si.post(ctx, base+"/v1/runs?wait=1", warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return si, nil
}

func (si *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if si.coordSrv != nil {
		_ = si.coordSrv.Shutdown(ctx)
		<-si.coordDone
	}
	if si.coord != nil {
		si.coord.Close()
	}
	for _, d := range append([]*daemon{si.single}, si.workers...) {
		if d != nil {
			d.close(ctx)
		}
	}
	si.client.CloseIdleConnections()
}

// post sends one JSON request and returns the body of a 200 response.
func (si *serveInstance) post(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := si.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// sample is one completed request.
type sample struct {
	spec    serve.RunSpec
	fresh   bool
	latency time.Duration
	ok      bool
	hash    string
	bytes   int
	work    workCounts // the job's Result counts
	// The serving job's own timeline, from its JobView.
	created, started, finished time.Time
}

type phase struct {
	name    string // "serve" or "cluster"
	url     string
	cluster bool
}

// phaseRun is one tier's progress through the request streams.
type phaseRun struct {
	phase
	next    []int // each client's position in its stream
	samples [][]sample
	elapsed time.Duration
	fresh   int
}

// runPhases alternates the two tiers in slices of the run, so that each
// tier's latencies sample the whole run rather than one stretch of it,
// until each tier has had half the time and minFreshPerPhase fresh jobs.
func (si *serveInstance) runPhases(ctx context.Context, runs []*phaseRun, streams [][]request, seconds float64) {
	half := time.Duration(seconds / 2 * float64(time.Second))
	slice := half / slicesPerPhase
	for ctx.Err() == nil {
		busy := false
		for _, r := range runs {
			if (r.elapsed >= half && r.fresh >= minFreshPerPhase) || r.elapsed >= maxPhase {
				continue
			}
			busy = true
			t0 := time.Now()
			si.runSlice(ctx, r, streams, slice)
			r.elapsed += time.Since(t0)
		}
		if !busy {
			return
		}
	}
}

// runSlice plays each client's stream against one tier for about d; each
// client finishes the request it has in flight.
func (si *serveInstance) runSlice(ctx context.Context, r *phaseRun, streams [][]request, d time.Duration) {
	start := time.Now()
	fresh := make([]int, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r.next[c] < len(streams[c]) && time.Since(start) < d && ctx.Err() == nil {
				s := si.do(ctx, r.phase, streams[c][r.next[c]])
				r.next[c]++
				r.samples[c] = append(r.samples[c], s)
				if s.fresh && s.ok {
					fresh[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, n := range fresh {
		r.fresh += n
	}
}

// do sends one request and checks the response.
func (si *serveInstance) do(ctx context.Context, p phase, rq request) sample {
	s := sample{spec: rq.spec, fresh: rq.fresh}
	reqID := si.nextReq.Add(1)
	parent := si.tr.newID()
	t0 := time.Now()
	if si.tr != nil {
		// The hop every request pays before any queue: validate the spec
		// and derive its content address.
		sp := rq.spec
		n0 := time.Now()
		if err := sp.Normalize("test"); err != nil {
			return s
		}
		_ = serve.RunJobID(sp)
		si.tr.record(0, parent, reqID, "serve.normalize", n0, time.Now())
	}
	body, _ := json.Marshal(rq.spec) // a RunSpec always marshals
	b, err := si.post(ctx, p.url+"/v1/runs?wait=1", body)
	t1 := time.Now()
	s.latency = t1.Sub(t0)
	s.bytes = len(b)
	if err != nil {
		return s
	}
	var view serve.JobView
	if p.cluster {
		var res cluster.DispatchResult
		if err := json.Unmarshal(b, &res); err != nil {
			return s
		}
		view, s.hash = res.View, res.StateHash
	} else if err := json.Unmarshal(b, &view); err != nil {
		return s
	}
	var result sim.ResultJSON
	if err := json.Unmarshal(view.Result, &result); err != nil {
		return s
	}
	if !p.cluster {
		s.hash = result.StateHash
	}
	s.work.addJSON(&result)
	s.created, _ = time.Parse(time.RFC3339Nano, view.Created)
	s.started, _ = time.Parse(time.RFC3339Nano, view.Started)
	s.finished, _ = time.Parse(time.RFC3339Nano, view.Finished)
	s.ok = view.State == serve.StateDone && s.hash != ""
	if si.tr != nil && s.fresh {
		si.tr.record(0, parent, reqID, p.name+".queue", s.created, s.started)
		si.tr.record(0, parent, reqID, p.name+".run", s.started, s.finished)
	}
	si.tr.record(parent, 0, reqID, p.name+".request", t0, t1)
	return s
}

// measure runs phases A and B, half the time each, checks every hash
// against the other phase's daemon, and summarises the latencies. sim_mips
// is the instructions of the fresh jobs both tiers served over the time
// the phases took: the closed loop's throughput in simulated work.
func (si *serveInstance) measure(ctx context.Context, seconds float64) (*report, error) {
	var before, after runtime.MemStats
	if si.tr != nil {
		runtime.ReadMemStats(&before)
	}
	streams := genStreams(si.o.seed)
	runs := []*phaseRun{
		{phase: phase{"serve", si.single.url, false}},
		{phase: phase{"cluster", si.coordURL, true}},
	}
	for _, r := range runs {
		r.next = make([]int, len(streams))
		r.samples = make([][]sample, len(streams))
	}
	freshBefore := si.single.m.FreshRuns()
	dispatchedBefore := si.workerDispatches()
	si.runPhases(ctx, runs, streams, seconds)
	freshRuns := si.single.m.FreshRuns() - freshBefore
	dispatched := si.workerDispatches()
	a, b := runs[0].samples, runs[1].samples
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	rep := &report{}
	var served, all workCounts // fresh jobs in the phases; every simulation
	var elapsed time.Duration
	for _, r := range runs {
		elapsed += r.elapsed
	}
	hashA, hashB := make(map[string]string), make(map[string]string)
	collect := func(ss [][]sample, hashes map[string]string) {
		for _, cs := range ss {
			for _, s := range cs {
				if s.ok && s.fresh {
					served.merge(s.work)
				}
				rep.attempted++
				v := s.spec.Variant
				switch {
				case !s.ok:
					rep.failed++
				case hashes[v] == "":
					hashes[v] = s.hash
				case hashes[v] != s.hash: // a hit must return its own job's hash
					rep.failed++
				}
			}
		}
	}
	collect(a, hashA)
	collect(b, hashB)
	all.merge(served)
	// Specs one phase reached and the other did not are submitted to the
	// other tier now, untimed, so that every hash is cross-checked.
	for _, x := range []struct {
		have, other map[string]string
		p           phase
	}{
		{hashA, hashB, phase{"cluster", si.coordURL, true}},
		{hashB, hashA, phase{"serve", si.single.url, false}},
	} {
		for v := range x.have {
			if _, ok := x.other[v]; ok {
				continue
			}
			sp := warmSpec
			sp.Variant = v
			s := si.do(ctx, x.p, request{spec: sp})
			rep.attempted++
			if !s.ok {
				rep.failed++
				continue
			}
			all.merge(s.work)
			x.other[v] = s.hash
		}
	}
	for v, h := range hashA {
		if hashB[v] != h {
			rep.failed++
			fmt.Printf("state hash mismatch for %s: rnrd %s, cluster %s\n", v, h, hashB[v])
		}
	}

	lat := func(ss [][]sample, fresh bool) []float64 {
		var out []float64
		for _, cs := range ss {
			for _, s := range cs {
				if s.ok && s.fresh == fresh {
					out = append(out, ms(s.latency))
				}
			}
		}
		return out
	}
	for _, m := range []struct {
		name string
		xs   []float64
		p90  bool
	}{
		{"job_ms", lat(a, true), true},
		{"hit_ms", lat(a, false), false},
		{"cluster_job_ms", lat(b, true), true},
		{"cluster_hit_ms", lat(b, false), false},
	} {
		sum := summarize(m.xs)
		rep.e2e = append(rep.e2e, metric{m.name + "_p50", "ms", sum.median, sum.n})
		if m.p90 && sum.hasP90 {
			rep.e2e = append(rep.e2e, metric{m.name + "_p90", "ms", sum.p90, sum.n})
		}
	}
	rep.e2e = append(rep.e2e, metric{"sim_mips", "Minstr/s", served.instructions / elapsed.Seconds() / 1e6, served.sims})
	rep.counts = all.counts()
	if si.tr == nil {
		return rep, nil
	}
	runtime.ReadMemStats(&after)
	rep.layer = append(allocMetrics(&before, &after, all.sims),
		si.layerMetrics(a, b, freshRuns, dispatchedBefore, dispatched)...)
	return rep, nil
}

// layerMetrics derives the serving hops' numbers from the job timelines
// and the spans of a traced measurement.
func (si *serveInstance) layerMetrics(a, b [][]sample, freshRuns uint64, before, after map[string]float64) []metric {
	var queue, run, overhead, proxy, size []float64
	freshA := 0
	for _, cs := range a {
		for _, s := range cs {
			if !s.ok || !s.fresh {
				continue
			}
			freshA++
			queue = append(queue, ms(s.started.Sub(s.created)))
			run = append(run, ms(s.finished.Sub(s.started)))
			overhead = append(overhead, ms(s.latency-s.finished.Sub(s.created)))
			size = append(size, float64(s.bytes))
		}
	}
	for _, cs := range b {
		for _, s := range cs {
			if s.ok && s.fresh {
				proxy = append(proxy, ms(s.latency-s.finished.Sub(s.created)))
			}
		}
	}
	builds := si.tr.durations("apps.build")
	norm := si.tr.durations("serve.normalize")
	out := []metric{
		{"apps.build_ms", "ms", median(builds), len(builds)},
		{"serve.normalize_us", "us", median(norm) * 1e3, len(norm)},
		{"serve.queue_wait_ms_p50", "ms", median(queue), len(queue)},
		{"serve.run_ms_p50", "ms", median(run), len(run)},
		{"serve.overhead_ms_p50", "ms", median(overhead), len(overhead)},
		{"serve.result_bytes", "B", median(size), len(size)},
		{"serve.rejects", "count", counter(si.single.reg, serve.CounterQueueRejects), 1},
		{"cluster.proxy_ms_p50", "ms", median(proxy), len(proxy)},
	}
	if freshA > 0 {
		out = append(out, metric{"serve.fresh_per_submit", "ratio", float64(freshRuns) / float64(freshA), freshA})
	}
	reg := si.coord.Registry()
	if n := counter(reg, cluster.CounterDispatches); n > 0 {
		out = append(out, metric{"cluster.attempts_per_job", "ratio",
			(n + counter(reg, cluster.CounterExclusions)) / n, 1})
	}
	var total, most float64
	for id, n := range after {
		d := n - before[id]
		total += d
		if d > most {
			most = d
		}
	}
	if total > 0 {
		out = append(out, metric{"cluster.worker_share_max", "fraction", most / total, int(total)})
	}
	return out
}

// workerDispatches reads each worker's successful dispatch count from the
// coordinator's registry.
func (si *serveInstance) workerDispatches() map[string]float64 {
	out := make(map[string]float64)
	for _, w := range si.coord.Workers() {
		out[w.ID] = float64(w.Dispatched)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
