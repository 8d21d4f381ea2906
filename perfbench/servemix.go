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
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/obs"
	"privim/internal/privim"
	"privim/internal/serve"
)

// serve-mixed settings. Jobs and set-up models train with the server's
// defaults (privim*, T=40) at ε=3; every job charges its own tenant,
// whose budget covers exactly one job.
const (
	jobBudget   = 4.0
	pollEvery   = 10 * time.Millisecond
	drainWithin = 20 * time.Second
)

// Query mix: 4 in 5 queries are /v1/seeds with k drawn from seedKs, the
// rest /v1/score; the graph is drawn uniformly.
var seedKs = []int{5, 10, 20, 50}

// servedGraph is one graph the server holds, with the model set-up
// trained on it and the local copies the checks compare against.
type servedGraph struct {
	name  string
	g     *graph.Graph
	model string         // registry name; set-up uploads version 1
	res   *privim.Result // the set-up training run behind version 1
}

// serveEnv is one in-process privimd on a loopback listener.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client
	graphs []*servedGraph
	inputs []input
	warm   []*query // set-up's cache-warming queries
	closed bool
}

// startServe generates and uploads the workload graphs and one trained
// model per graph. Its temp journal directory holds the ledger, the job
// table and job checkpoints.
func startServe(cfg config, o obs.Observer) (*serveEnv, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{JournalDir: dir, Budget: jobBudget, Observer: o})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		// At most 2 connections: the load comes from one process.
		client: &http.Client{Timeout: drainWithin, Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := e.load(cfg); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// load uploads both graphs, checks the server pinned the same
// fingerprints, then trains and uploads one model per graph.
func (e *serveEnv) load(cfg config) error {
	for i, p := range []dataset.Preset{dataset.Bitcoin, dataset.Email} {
		g, in, err := genGraph(p, cfg.scale, cfg.seed)
		if err != nil {
			return err
		}
		var body bytes.Buffer
		if err := graph.WriteEdgeList(&body, g); err != nil {
			return err
		}
		var info serve.GraphInfo
		if err := e.call(http.MethodPost, "/v1/graphs/"+in.Name, body.Bytes(), http.StatusCreated, &info); err != nil {
			return err
		}
		if info.Fingerprint != in.Fingerprint || info.Nodes != in.Nodes || info.Edges != in.Edges {
			return fmt.Errorf("server stored %s as %+v, generated %+v", in.Name, info, in)
		}
		res, err := privim.TrainContext(context.Background(), g, privim.Config{
			Mode: privim.ModeDual, Epsilon: epsilon, Seed: derive(cfg.seed, 1000+i),
		})
		if err != nil {
			return fmt.Errorf("set-up model for %s: %w", in.Name, err)
		}
		var ckpt bytes.Buffer
		if err := res.SaveModel(&ckpt); err != nil {
			return err
		}
		sg := &servedGraph{name: in.Name, g: g, model: "m-" + in.Name, res: res}
		if err := e.call(http.MethodPost, "/v1/models/"+sg.model, ckpt.Bytes(), http.StatusCreated, nil); err != nil {
			return err
		}
		e.graphs = append(e.graphs, sg)
		e.inputs = append(e.inputs, in)
		// Warm the result cache: in steady state every key of an
		// unchanged model is cached, and only a publish makes its keys
		// miss.
		for _, k := range append([]int{0}, seedKs...) {
			q := &query{graph: sg, k: k}
			e.send(q, nil)
			var c checks
			if !checkQuery(&c, q, &queryReply{}) {
				return fmt.Errorf("warming the cache: %v", c)
			}
			e.warm = append(e.warm, q)
		}
	}
	return nil
}

// call makes one set-up or bookkeeping request and decodes the JSON reply
// into out (when non-nil).
func (e *serveEnv) call(method, path string, body []byte, want int, out any, hdr ...string) error {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// close shuts the HTTP server and the daemon down, waits for both, and
// removes the journal directory. Later calls do nothing.
func (e *serveEnv) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), drainWithin)
	defer cancel()
	errs := []error{e.hs.Shutdown(ctx)}
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, e.srv.Drain(ctx))
	e.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// query is one scheduled /v1/seeds or /v1/score request and its outcome.
type query struct {
	due   time.Duration // offset from the schedule's start
	graph *servedGraph
	k     int // 0 for /v1/score

	late       time.Duration // generator lateness: dispatched − due
	sent, done time.Time
	status     int
	body       []byte
	err        error
}

func (q *query) endpoint() string {
	if q.k == 0 {
		return "score"
	}
	return "seeds"
}

// job is one scheduled /v1/train submission, its polling and the seeds
// query on the version it publishes: the API's train→select pipeline.
type job struct {
	due    time.Duration // offset from the schedule's start
	graph  *servedGraph
	tenant string
	seed   int64

	submit, submitted, done time.Time
	submitStatus            int
	status                  serve.JobStatus
	seeds                   *query // the seeds query on the published version
	problems                checks
}

// queryReply is the /v1/score and /v1/seeds response body.
type queryReply struct {
	Model  string         `json:"model"`
	Seeds  []graph.NodeID `json:"seeds"`
	Scores []float64      `json:"scores"`
	Cached bool           `json:"cached"`
}

// send issues one query; with o set, it runs in its own trace under a
// client span whose trace ID the server sees in X-Privim-Trace.
func (e *serveEnv) send(q *query, o obs.Observer) {
	body, _ := json.Marshal(map[string]any{"model": q.graph.model, "graph": q.graph.name, "k": q.k}) // plain map: cannot fail
	if q.k == 0 {
		body, _ = json.Marshal(map[string]any{"model": q.graph.model, "graph": q.graph.name})
	}
	var sp *obs.Span
	var trace string
	if o != nil {
		trace = obs.NewTraceID()
		sp = obs.StartSpanCtx(obs.ContextWithTrace(context.Background(), trace), o, "client."+q.endpoint())
	}
	q.sent = time.Now()
	q.status, q.body, q.err = e.post("/v1/"+q.endpoint(), body, trace, "")
	q.done = time.Now()
	sp.End()
}

// post sends a JSON POST with optional trace and tenant headers.
func (e *serveEnv) post(path string, body []byte, trace, tenant string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set("X-Privim-Trace", trace)
	}
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runJob submits a training job, polls it to a terminal state, and asks
// the version it published for k seeds.
func (e *serveEnv) runJob(j *job, o obs.Observer) {
	c := &j.problems
	var sp *obs.Span
	var trace string
	if o != nil {
		trace = obs.NewTraceID()
		sp = obs.StartSpanCtx(obs.ContextWithTrace(context.Background(), trace), o, "client.train")
		defer sp.End()
	}
	req, _ := json.Marshal(serve.TrainRequest{ // plain struct: cannot fail
		Graph: j.graph.name, ModelName: j.graph.model, Epsilon: epsilon, Seed: j.seed,
	})
	j.submit = time.Now()
	status, body, err := e.post("/v1/train", req, trace, j.tenant)
	j.submitted, j.submitStatus = time.Now(), status
	if err != nil || status != http.StatusAccepted {
		c.expect(false, "train %s: status %d err %v: %s", j.tenant, status, err, bytes.TrimSpace(body))
		return
	}
	if err := json.Unmarshal(body, &j.status); err != nil {
		c.expect(false, "train %s: decoding reply: %v", j.tenant, err)
		return
	}
	deadline := time.Now().Add(drainWithin)
	for terminal := false; !terminal; {
		if time.Now().After(deadline) {
			c.expect(false, "job %s: not done after %v (state %s)", j.status.ID, drainWithin, j.status.State)
			return
		}
		time.Sleep(pollEvery)
		if err := e.call(http.MethodGet, "/v1/jobs/"+j.status.ID, nil, http.StatusOK, &j.status); err != nil {
			c.expect(false, "job %s: poll: %v", j.status.ID, err)
			return
		}
		switch j.status.State {
		case serve.JobDone, serve.JobFailed, serve.JobCanceled:
			terminal = true
		}
	}
	j.done = time.Now()
	st := j.status
	c.expect(st.State == serve.JobDone, "job %s: state %s: %s", st.ID, st.State, st.Error)
	c.expect(st.EpsilonSpent > 0 && st.EpsilonSpent <= epsilon,
		"job %s: epsilon_spent %v, want in (0, %v]", st.ID, st.EpsilonSpent, epsilon)
	if st.State != serve.JobDone {
		return
	}
	q := &query{graph: j.graph, k: seedSetSize}
	body, _ = json.Marshal(map[string]any{"model": st.Model, "graph": j.graph.name, "k": q.k})
	q.sent = time.Now()
	q.status, q.body, q.err = e.post("/v1/seeds", body, trace, "")
	q.done = time.Now()
	j.seeds = q
	var r queryReply
	if checkQuery(c, q, &r) {
		c.expect(r.Model == st.Model, "job %s: seeds answered by %s, want %s", st.ID, r.Model, st.Model)
	}
}

// checkQuery checks a query's reply: 200; k distinct in-range seeds for
// /v1/seeds; |V| finite scores for /v1/score. It decodes into r and
// reports whether every check passed.
func checkQuery(c *checks, q *query, r *queryReply) bool {
	before := len(*c)
	what := fmt.Sprintf("%s %s k=%d", q.endpoint(), q.graph.name, q.k)
	if q.err != nil || q.status != http.StatusOK {
		c.expect(false, "%s: status %d err %v: %s", what, q.status, q.err, bytes.TrimSpace(q.body))
		return false
	}
	if err := json.Unmarshal(q.body, r); err != nil {
		c.expect(false, "%s: decoding reply: %v", what, err)
		return false
	}
	n := q.graph.g.NumNodes()
	if q.k > 0 {
		c.expectSeeds(what, r.Seeds, q.k, n)
	} else {
		c.expect(len(r.Scores) == n, "%s: %d scores, want %d", what, len(r.Scores), n)
		for _, s := range r.Scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				c.expect(false, "%s: non-finite score %v", what, s)
				break
			}
		}
	}
	return len(*c) == before
}

// isRejection reports whether an HTTP status is admission refusing work.
func isRejection(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// counterDelta is the growth of a /metrics counter between two snapshots.
func counterDelta(before, after map[string]json.RawMessage, name string) float64 {
	var a, b float64
	_ = json.Unmarshal(before[name], &a) // absent counter reads as 0
	_ = json.Unmarshal(after[name], &b)
	return b - a
}

// cacheKey identifies one cacheable answer.
type cacheKey struct {
	model, graph, endpoint string
	k                      int
}

// runServeMixed drives one privimd with an open-loop query schedule and
// periodic training jobs.
func runServeMixed(cfg config) (*report, error) {
	rep := newReport(cfg)
	rep.Provenance.QueriesPerSec = cfg.qps
	rep.Provenance.JobEvery = cfg.jobEvery.String()
	t := &tally{}
	var col *collector
	var o obs.Observer
	if cfg.trace {
		col = newCollector()
		o = col
	}

	// Set-up, cfg.setups times; the last server stays up for the run.
	var e *serveEnv
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if e, err = startServe(cfg, o); err != nil {
			return nil, err
		}
		if i > 0 && !slices.Equal(e.inputs, rep.Inputs) {
			e.close()
			return nil, fmt.Errorf("set-up %d regenerated %+v, first set-up had %+v", i, e.inputs, rep.Inputs)
		}
		rep.Inputs = e.inputs
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	rep.Metrics.median("setup_s", setups)

	// Warm-up: one job period of the same traffic, checked but not
	// measured, so the measured window starts with the heap, the GC pacer
	// and the connection pool in steady state.
	rng := rand.New(rand.NewSource(cfg.seed))
	warmQ, warmJ := e.schedule(cfg, rng, 0, 1)
	e.drive(warmQ, warmJ, nil)
	nJobs := max(1, int(cfg.seconds/cfg.jobEvery.Seconds()))
	queries, jobs := e.schedule(cfg, rng, len(warmJ), nJobs)
	nQueries := len(queries)

	var before, after map[string]json.RawMessage
	if err := e.call(http.MethodGet, "/metrics", nil, http.StatusOK, &before); err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	phase := startMem()
	start := e.drive(queries, jobs, o)
	phaseMallocs, pauseMs := phase.stop()
	m := rep.Metrics
	setHeap(m, heap)
	if err := e.call(http.MethodGet, "/metrics", nil, http.StatusOK, &after); err != nil {
		return nil, err
	}

	allJobs := append(warmJ, jobs...)
	queryMetrics(m, t, e.warm, warmQ, queries, allJobs, start)
	for _, j := range warmJ {
		t.op(j.problems)
	}
	jobMetrics(m, t, jobs)
	t.op(e.checkBudget(allJobs))
	hits := counterDelta(before, after, "serve.cache.hits")
	misses := counterDelta(before, after, "serve.cache.misses")
	m.set("serve.cache_hit_pct", 100*hits/max(1, hits+misses), int(hits+misses), "/metrics serve.cache.hits/misses")
	ops := nQueries + nJobs
	m.set("go.allocs_per_op", float64(phaseMallocs)/float64(ops), ops, "mallocs per query or job, server included")
	m.set("go.gc_pause_ms", pauseMs/float64(ops), ops, "GC pause per query or job")
	e.quality(m, t, jobs, cfg.seed)

	var cc checks
	if err := e.close(); err != nil {
		cc.expect(false, "shutdown: %v", err)
	}
	t.op(cc)
	if cfg.trace {
		spans, events := col.snapshot()
		b := analyze(spans, "serve.job")
		rep.breakdown, rep.rootSpan, rep.Layers = b, "serve.job", b.rows
		spanMetrics(m, b)
		eventMetrics(m, events, seedSetSize)
		m.median("bench.unattributed_pct", b.unattributedPct)
		var jc checks
		path, err := col.writeJournal(cfg.outDir, traceStem(cfg))
		jc.expect(err == nil, "trace journal: %v", err)
		t.op(jc)
		rep.Journal = path
	}
	fillNA(m)
	rep.finish(t)
	return rep, nil
}

// schedule draws periods job periods of open-loop traffic from rng: a
// training job every jobEvery and queries at qps over the same span. Job
// number first+i charges its own tenant and trains on its own seed.
//
// Every job retrains the bitcoin model (graphs[0]), so after each publish
// the first query per key of that model misses the cache, while the email
// model's keys stay cached. One retrained graph keeps the jobs alike, and
// bitcoin's misses — the costlier scoring — are then the slowest queries,
// so the latency tail sits among them rather than on the edge between two
// kinds of miss.
func (e *serveEnv) schedule(cfg config, rng *rand.Rand, first, periods int) ([]*query, []*job) {
	queries := make([]*query, max(1, int(float64(periods)*cfg.jobEvery.Seconds()*cfg.qps)))
	for i := range queries {
		q := &query{
			due:   time.Duration(float64(i) / cfg.qps * float64(time.Second)),
			graph: e.graphs[rng.Intn(len(e.graphs))],
		}
		if rng.Intn(5) < 4 {
			q.k = seedKs[rng.Intn(len(seedKs))]
		}
		queries[i] = q
	}
	jobs := make([]*job, periods)
	for i := range jobs {
		n := first + i
		jobs[i] = &job{due: time.Duration(i) * cfg.jobEvery, graph: e.graphs[0],
			tenant: fmt.Sprintf("job-%d", n), seed: derive(cfg.seed, 2000+n)}
	}
	return queries, jobs
}

// drive runs the schedule from now and returns once every query and job
// has finished. Queries are dispatched at their due times whatever is
// still in flight (an open loop); the returned start is time zero of the
// schedule.
func (e *serveEnv) drive(queries []*query, jobs []*job, o obs.Observer) time.Time {
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(len(queries) + len(jobs))
	go func() {
		for _, q := range queries {
			time.Sleep(time.Until(start.Add(q.due)))
			q.late = time.Since(start.Add(q.due))
			go func(q *query) {
				defer wg.Done()
				e.send(q, o)
			}(q)
		}
	}()
	go func() {
		for _, j := range jobs {
			time.Sleep(time.Until(start.Add(j.due)))
			go func(j *job) {
				defer wg.Done()
				e.runJob(j, o)
			}(j)
		}
	}()
	wg.Wait()
	return start
}

// checkAnswers runs checkQuery on every query and checks that each answer
// for a cache key is byte-equal, apart from the cached flag, to the first
// uncached answer for it (by completion time). It returns the decoded
// replies and each query's failed checks.
func checkAnswers(all []*query) (map[*query]queryReply, map[*query]checks) {
	replies := make(map[*query]queryReply, len(all))
	problems := make(map[*query]checks, len(all))
	ok := make(map[*query]bool, len(all))
	for _, q := range all {
		var r queryReply
		var c checks
		ok[q] = checkQuery(&c, q, &r)
		replies[q], problems[q] = r, c
	}
	key := func(q *query) cacheKey { return cacheKey{replies[q].Model, q.graph.name, q.endpoint(), q.k} }
	byDone := slices.Clone(all)
	sort.SliceStable(byDone, func(a, b int) bool { return byDone[a].done.Before(byDone[b].done) })
	first := make(map[cacheKey][]byte)
	for _, q := range byDone {
		if k := key(q); ok[q] && !replies[q].Cached && first[k] == nil {
			first[k] = q.body
		}
	}
	for _, q := range all {
		if !ok[q] {
			continue
		}
		got := q.body
		if replies[q].Cached {
			got = bytes.Replace(got, []byte(`"cached":true`), []byte(`"cached":false`), 1)
		}
		c := problems[q]
		c.expect(bytes.Equal(got, first[key(q)]), "%s %s k=%d: answer of %s differs from its first uncached answer",
			q.endpoint(), q.graph.name, q.k, replies[q].Model)
		problems[q] = c
	}
	return replies, problems
}

// queryMetrics checks every query and sets the query metrics from the
// measured ones. The cache check also covers the set-up's cache-warming
// queries, the warm-up period's queries (checked and counted, not
// measured) and the jobs' own seeds queries, whose failures land in their
// job.
func queryMetrics(m readings, t *tally, setupQ, warmQ, queries []*query, jobs []*job, start time.Time) {
	all := slices.Concat(setupQ, warmQ, queries)
	for _, j := range jobs {
		if j.seeds != nil {
			all = append(all, j.seeds)
		}
	}
	replies, problems := checkAnswers(all)
	for _, j := range jobs {
		if j.seeds != nil {
			j.problems = append(j.problems, problems[j.seeds]...)
		}
	}
	for _, q := range warmQ {
		t.op(problems[q])
	}

	var dueLat, lateMs, seedsHit, seedsMiss, scoreMiss []float64
	rejected, within := 0, 0
	var lastDone time.Time
	for _, q := range queries {
		t.op(problems[q])
		if isRejection(q.status) {
			rejected++
		}
		lateMs = append(lateMs, ms(q.late))
		if len(problems[q]) > 0 {
			continue
		}
		lat := q.done.Sub(start.Add(q.due))
		dueLat = append(dueLat, ms(lat))
		if lat <= sloMs*time.Millisecond {
			within++
		}
		if q.done.After(lastDone) {
			lastDone = q.done
		}
		switch client := ms(q.done.Sub(q.sent)); {
		case q.k == 0 && !replies[q].Cached:
			scoreMiss = append(scoreMiss, client)
		case q.k > 0 && replies[q].Cached:
			seedsHit = append(seedsHit, client)
		case q.k > 0:
			seedsMiss = append(seedsMiss, client)
		}
	}
	for _, j := range jobs {
		if isRejection(j.submitStatus) {
			rejected++
		}
	}
	// A request is serve-mixed's unit of work, so its pipeline metrics
	// are the queries'; the train→publish→select job pipeline is
	// train_job_p50_s and the serve.job_* layers.
	m.median("pipeline_p50_ms", dueLat)
	m.tail("pipeline_tail_ms", dueLat)
	m.set("pipelines_per_min", float64(len(dueLat))/lastDone.Sub(start).Minutes(), len(dueLat), "ok queries/(last done - first due)")
	m.median("query_p50_ms", dueLat)
	m.tail("query_tail_ms", dueLat)
	m.set("query_slo_pct", 100*float64(within)/float64(len(queries)), len(queries), "ok within 500 ms of due")
	m.set("queries_per_s", float64(len(dueLat))/lastDone.Sub(start).Seconds(), len(dueLat), "ok queries/(last done - first due)")
	m.median("serve.seeds_hit_ms", seedsHit)
	m.median("serve.seeds_miss_ms", seedsMiss)
	m.median("serve.score_ms", scoreMiss)
	m.tail("client.late_tail_ms", lateMs)
	m.set("serve.rejected", float64(rejected), len(queries)+len(jobs), "429/503 replies")
}

// jobMetrics counts the jobs and sets the job metrics.
func jobMetrics(m readings, t *tally, jobs []*job) {
	var trainS, submitMs, waitMs, runMs []float64
	for _, j := range jobs {
		t.op(j.problems)
		if !j.submitted.IsZero() {
			submitMs = append(submitMs, ms(j.submitted.Sub(j.submit)))
		}
		if j.status.State == serve.JobDone {
			waitMs = append(waitMs, ms(j.status.Started.Sub(j.status.Created)))
			runMs = append(runMs, ms(j.status.Finished.Sub(j.status.Started)))
		}
		if len(j.problems) > 0 {
			continue
		}
		trainS = append(trainS, j.done.Sub(j.submit).Seconds())
	}
	m.median("train_job_p50_s", trainS)
	m.median("serve.train_submit_ms", submitMs)
	m.median("serve.job_queue_wait_ms", waitMs)
	m.median("serve.job_run_ms", runMs)
}

// checkBudget checks the ledger after the jobs: summed over the jobs'
// tenants, committed ε equals the jobs' summed spend and nothing is left
// reserved. Each job charges its own tenant, so each ledger entry holds
// exactly one run and no RDP composition makes the sum smaller.
func (e *serveEnv) checkBudget(jobs []*job) checks {
	var c checks
	committed, spent := 0.0, 0.0
	for _, j := range jobs {
		if j.status.State == serve.JobDone {
			spent += j.status.EpsilonSpent
		}
		var b struct {
			Budgets []struct {
				Committed float64 `json:"committed"`
				Reserved  float64 `json:"reserved"`
			} `json:"budgets"`
		}
		if err := e.call(http.MethodGet, "/v1/budget", nil, http.StatusOK, &b, serve.TenantHeader, j.tenant); err != nil {
			c.expect(false, "budget %s: %v", j.tenant, err)
			continue
		}
		for _, x := range b.Budgets {
			committed += x.Committed
			c.expect(x.Reserved == 0, "budget %s: %v ε still reserved after the jobs ended", j.tenant, x.Reserved)
		}
	}
	c.expect(math.Abs(committed-spent) <= 1e-9*math.Max(1, spent),
		"ledger committed ε %v, jobs spent %v", committed, spent)
	return c
}

// quality checks, untimed, that the seeds the server answers for each
// set-up model equal the library's own selection, and sets spread_nodes
// and coverage_pct: every model the run published — both set-up models
// and each measured job's version — selects k seeds on every served
// graph, and the metrics are the mean IC spread of those seeds and its
// mean ratio to CELF's on the same graph. One model's quality swings with
// its training seed; the mean over all pairs is far steadier.
func (e *serveEnv) quality(m readings, t *tally, jobs []*job, seed int64) {
	models := []string{}
	for _, sg := range e.graphs {
		models = append(models, sg.model+"@1")
	}
	for _, j := range jobs {
		if len(j.problems) == 0 {
			models = append(models, j.status.Model)
		}
	}
	var c checks
	ref := make(map[*servedGraph]float64)
	for i, sg := range e.graphs {
		ic := &diffusion.IC{G: sg.g, MaxSteps: evalSteps}
		if r, err := celfReference(context.Background(), ic, sg.g.NumNodes(), derive(seed, 3000+i), nil, &c); err == nil {
			ref[sg] = r
		}
	}
	var spreads, coverages []float64
	for mi, model := range models {
		for gi, sg := range e.graphs {
			q := &query{graph: sg, k: seedSetSize}
			body, _ := json.Marshal(map[string]any{"model": model, "graph": sg.name, "k": q.k}) // plain map: cannot fail
			q.status, q.body, q.err = e.post("/v1/seeds", body, "", "")
			var r queryReply
			if !checkQuery(&c, q, &r) {
				continue
			}
			if mi == gi {
				want := sg.res.SelectSeeds(sg.g, seedSetSize)
				c.expect(slices.Equal(r.Seeds, want), "%s: served seeds %v, library selects %v", model, r.Seeds, want)
			}
			ic := &diffusion.IC{G: sg.g, MaxSteps: evalSteps}
			spread, err := diffusion.EstimateContext(context.Background(), ic, r.Seeds, evalRounds, derive(seed, 4000+2*mi+gi), nil)
			c.expect(err == nil, "%s on %s: estimate: %v", model, sg.name, err)
			c.expectSpread(model+" on "+sg.name, spread, seedSetSize)
			spreads = append(spreads, spread)
			coverages = append(coverages, im.CoverageRatio(spread, ref[sg]))
		}
	}
	t.op(c)
	m.set("spread_nodes", mean(spreads), len(spreads), "mean over every published model on every graph, k=10")
	m.set("coverage_pct", mean(coverages), len(coverages), "mean over every published model on every graph vs CELF")
}
