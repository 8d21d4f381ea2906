package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/obs"
	"privim/internal/privim"
	"privim/internal/tensor"
)

// processStart approximates the process start time for setup_s.
var processStart = time.Now()

// pipelineSpec is one closed-loop train→select→evaluate workload: the
// cmd/privim path on one preset graph.
type pipelineSpec struct {
	preset dataset.Preset
	iters  int  // DP-SGD iterations T
	celf   bool // run the im.CELF reference inside every pipeline (privim -celf)
}

var pipelineSpecs = map[string]pipelineSpec{
	"train-email":    {dataset.Email, 100, false},
	"select-bitcoin": {dataset.Bitcoin, 10, true},
}

// graphsPerRun is how many graphs of the preset a pipeline run generates
// from its seed and cycles through, so one run's medians average over
// several inputs rather than resting on one graph's shape.
const graphsPerRun = 4

// The paper's evaluation settings, shared by every workload.
const (
	epsilon     = 3.0 // privacy budget ε of every training run
	seedSetSize = 10  // k
	evalRounds  = 10  // Monte-Carlo rounds of every spread estimate and of CELF
	evalSteps   = 1   // IC diffusion steps j
	sloMs       = 500 // query latency limit for query_slo_pct
)

// derive returns the i-th operation seed of a workload seed (a SplitMix64
// step), so every pipeline and job trains on its own seed.
func derive(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// genGraph generates preset p twice from seed and fails when the two
// graphs' fingerprints differ: the workload's inputs must be pinned by
// the seed alone.
func genGraph(p dataset.Preset, scale float64, seed int64) (*graph.Graph, input, error) {
	opts := dataset.Options{Scale: scale, Seed: seed, InfluenceProb: 1}
	a, err := dataset.Generate(p, opts)
	if err != nil {
		return nil, input{}, err
	}
	b, err := dataset.Generate(p, opts)
	if err != nil {
		return nil, input{}, err
	}
	fa, fb := a.Graph.Fingerprint(), b.Graph.Fingerprint()
	if fa != fb {
		return nil, input{}, fmt.Errorf("%s seed %d: regenerated graph fingerprint %016x differs from %016x", p, seed, fb, fa)
	}
	return a.Graph, input{Name: string(p), Fingerprint: fmt.Sprintf("%016x", fa),
		Nodes: a.Graph.NumNodes(), Edges: a.Graph.NumEdges()}, nil
}

// selectSeeds is Result.SelectSeeds split at its layer boundaries
// (features, GNN scoring, top-k), each wrapped in a span when ctx carries
// one.
func selectSeeds(ctx context.Context, m *gnn.Model, g *graph.Graph, k int) ([]graph.NodeID, error) {
	sp := obs.StartSpanCtx(ctx, nil, "dataset.features")
	x := tensor.FromSlice(g.NumNodes(), dataset.NumStructuralFeatures, dataset.StructuralFeatures(g))
	sp.End()
	sp = obs.StartSpanCtx(ctx, nil, "gnn.score")
	scores, err := m.ScoreContext(ctx, g, x)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpanCtx(ctx, nil, "im.topk")
	seeds := im.TopKScores(scores, k)
	sp.End()
	return seeds, nil
}

// pipelineOut is one pipeline's timings, quality and failed checks.
type pipelineOut struct {
	wall, train, sel time.Duration
	selOK            bool
	spread, coverage float64
	problems         checks
	res              *privim.Result
	seeds            []graph.NodeID
}

// runPipeline trains on g, selects k seeds, estimates their spread and,
// for a CELF workload, runs the CELF reference. With o set, the pipeline
// runs in its own trace under a "pipeline" root span.
func runPipeline(spec pipelineSpec, g *graph.Graph, seed int64, o obs.Observer, corrupt func([]graph.NodeID) []graph.NodeID) (out pipelineOut) {
	ctx := context.Background()
	var root *obs.Span
	if o != nil {
		ctx = obs.ContextWithTrace(ctx, obs.NewTraceID())
		root = obs.StartSpanCtx(ctx, o, "pipeline")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	c := &out.problems
	n := g.NumNodes()
	t0 := time.Now()
	defer func() {
		root.End()
		out.wall = time.Since(t0)
	}()

	res, err := privim.TrainContext(ctx, g, privim.Config{
		Mode: privim.ModeDual, Epsilon: epsilon, Iterations: spec.iters, Seed: seed, Observer: o,
	})
	out.train = time.Since(t0)
	if err != nil {
		c.expect(false, "train seed %d: %v", seed, err)
		return out
	}
	out.res = res
	c.expect(res.EpsilonSpent > 0 && res.EpsilonSpent <= epsilon,
		"train seed %d: EpsilonSpent %v, want in (0, %v]", seed, res.EpsilonSpent, epsilon)
	c.expect(res.Sigma > 0, "train seed %d: Sigma %v, want > 0", seed, res.Sigma)

	t1 := time.Now()
	seeds, err := selectSeeds(ctx, res.Model, g, seedSetSize)
	out.sel = time.Since(t1)
	if err != nil {
		c.expect(false, "select seed %d: %v", seed, err)
		return out
	}
	if corrupt != nil {
		seeds = corrupt(seeds)
	}
	out.seeds = seeds
	before := len(*c)
	c.expectSeeds(fmt.Sprintf("select seed %d", seed), seeds, seedSetSize, n)
	out.selOK = len(*c) == before

	ic := &diffusion.IC{G: g, MaxSteps: evalSteps}
	out.spread, err = diffusion.EstimateContext(ctx, ic, seeds, evalRounds, seed, o)
	if err != nil {
		c.expect(false, "estimate seed %d: %v", seed, err)
		return out
	}
	c.expectSpread(fmt.Sprintf("estimate seed %d", seed), out.spread, seedSetSize)
	if !spec.celf {
		return out
	}
	ref, err := celfReference(ctx, ic, n, seed, o, c)
	if err != nil {
		return out
	}
	out.coverage = im.CoverageRatio(out.spread, ref)
	return out
}

// celfReference runs the CELF baseline and estimates its seeds' spread —
// the reference coverage_pct divides by. Failed checks land in c.
func celfReference(ctx context.Context, ic *diffusion.IC, n int, seed int64, o obs.Observer, c *checks) (float64, error) {
	cf := &im.CELF{Model: ic, Rounds: evalRounds, Seed: seed, NumNodes: n, Obs: o}
	cs, err := cf.SelectContext(ctx, seedSetSize)
	if err != nil {
		c.expect(false, "CELF seed %d: %v", seed, err)
		return 0, err
	}
	c.expectSeeds(fmt.Sprintf("CELF seed %d", seed), cs, seedSetSize, n)
	ref, err := diffusion.EstimateContext(ctx, ic, cs, evalRounds, seed, o)
	if err != nil {
		c.expect(false, "CELF estimate seed %d: %v", seed, err)
		return 0, err
	}
	c.expectSpread(fmt.Sprintf("CELF estimate seed %d", seed), ref, seedSetSize)
	return ref, nil
}

// runPipelines runs a closed loop of pipelines with one client.
func runPipelines(cfg config) (*report, error) {
	spec := pipelineSpecs[cfg.workload]
	rep := newReport(cfg)
	t := &tally{}

	// Set-up: generate and pin the graphs, then run one warm-up pipeline so
	// the heap and caches are at steady state before timing. Repeated
	// cfg.setups times; setup_s is the median, the first timed from
	// process start.
	var gs []*graph.Graph
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		gs = gs[:0]
		var ins []input
		for j := 0; j < graphsPerRun; j++ {
			g, in, err := genGraph(spec.preset, cfg.scale, derive(cfg.seed, 100+j))
			if err != nil {
				return nil, err
			}
			gs, ins = append(gs, g), append(ins, in)
		}
		if i > 0 && !slices.Equal(ins, rep.Inputs) {
			return nil, fmt.Errorf("set-up %d regenerated %+v, first set-up had %+v", i, ins, rep.Inputs)
		}
		rep.Inputs = ins
		if w := runPipeline(spec, gs[0], derive(cfg.seed, -1-i), nil, nil); len(w.problems) > 0 {
			return nil, fmt.Errorf("warm-up pipeline: %v", w.problems)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.Metrics.median("setup_s", setups)

	// Timed phase. A traced run alternates untraced and traced rounds over
	// the graphs, so the tracing overhead is measured on the same inputs
	// under the same conditions.
	var col *collector
	if cfg.trace {
		col = newCollector()
	}
	var outs []pipelineOut
	var wallU, wallT, trainU, selU []float64
	var mallocs uint64
	var mallocOps int
	heap := startHeapPeak()
	phase := startMem()
	minOps := cfg.fixedOps
	if cfg.trace {
		minOps = max(minOps, 2*len(gs)) // at least one traced round
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < cfg.seconds; i++ {
		traced := cfg.trace && i/len(gs)%2 == 1
		var o obs.Observer
		if traced {
			o = col
		}
		var md *memDelta
		if cfg.trace && !traced {
			md = startMem()
		}
		out := runPipeline(spec, gs[i%len(gs)], derive(cfg.seed, i), o, cfg.corrupt)
		if md != nil {
			m, _ := md.stop()
			mallocs += m
			mallocOps++
		}
		t.op(out.problems)
		outs = append(outs, out)
		if traced {
			wallT = append(wallT, ms(out.wall))
			continue
		}
		wallU = append(wallU, ms(out.wall))
		trainU = append(trainU, out.train.Seconds())
		if out.selOK {
			selU = append(selU, ms(out.sel))
		}
	}
	elapsed := time.Since(start)
	phaseMallocs, pauseMs := phase.stop()
	setHeap(rep.Metrics, heap)
	if !cfg.trace {
		mallocs, mallocOps = phaseMallocs, len(outs)
	}

	// Spread and coverage average the first fixedOps pipelines, so both
	// repeat exactly for a seed however many pipelines the host completes.
	var spreads, coverages []float64
	for _, o := range outs[:cfg.fixedOps] {
		spreads = append(spreads, o.spread)
		coverages = append(coverages, o.coverage)
	}
	if !spec.celf {
		// No CELF inside the timed pipelines: run the reference once per
		// graph, untimed.
		for j, g := range gs {
			var c checks
			ic := &diffusion.IC{G: g, MaxSteps: evalSteps}
			ref, err := celfReference(context.Background(), ic, g.NumNodes(), derive(cfg.seed, 200+j), nil, &c)
			t.op(c)
			for i := j; err == nil && i < cfg.fixedOps; i += len(gs) {
				coverages[i] = im.CoverageRatio(outs[i].spread, ref)
			}
		}
	}
	// The split selection must agree with the library's own
	// Result.SelectSeeds; check it once, untimed.
	var c checks
	if first := outs[0]; first.res != nil && cfg.corrupt == nil {
		c.expect(slices.Equal(first.res.SelectSeeds(gs[0], seedSetSize), first.seeds),
			"split selection %v differs from Result.SelectSeeds", first.seeds)
	}
	t.op(c)

	m := rep.Metrics
	m.median("pipeline_p50_ms", wallU)
	m.tail("pipeline_tail_ms", wallU)
	m.set("pipelines_per_min", float64(len(outs))/elapsed.Minutes(), len(outs), "completed/elapsed")
	m.set("spread_nodes", mean(spreads), len(spreads), fmt.Sprintf("mean of the first %d pipelines", cfg.fixedOps))
	m.set("coverage_pct", mean(coverages), len(coverages), fmt.Sprintf("mean of the first %d pipelines vs CELF", cfg.fixedOps))
	m.median("train_job_p50_s", trainU)
	m.median("query_p50_ms", selU)
	m.tail("query_tail_ms", selU)
	selOK, within := 0, 0
	for _, o := range outs {
		if o.selOK {
			selOK++
			if ms(o.sel) <= sloMs {
				within++
			}
		}
	}
	m.set("query_slo_pct", 100*float64(within)/float64(len(outs)), len(outs), "select steps ok within 500 ms")
	m.set("queries_per_s", float64(selOK)/elapsed.Seconds(), len(outs), "select steps/elapsed")
	m.set("go.allocs_per_op", float64(mallocs)/float64(mallocOps), mallocOps, "mallocs per untraced pipeline")
	m.set("go.gc_pause_ms", pauseMs/float64(len(outs)), len(outs), "GC pause per pipeline")

	if cfg.trace {
		spans, events := col.snapshot()
		b := analyze(spans, "pipeline")
		rep.breakdown, rep.rootSpan, rep.Layers = b, "pipeline", b.rows
		spanMetrics(m, b)
		eventMetrics(m, events, seedSetSize)
		m.median("bench.unattributed_pct", b.unattributedPct)
		if len(wallT) > 0 && len(wallU) > 0 {
			m.set("obs.trace_overhead_pct", 100*(median(wallT)/median(wallU)-1), len(wallT)+len(wallU),
				"traced vs untraced pipeline p50")
		}
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

// fillNA marks every registered metric the workload did not set.
func fillNA(m readings) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := m[d.name]; !ok {
				m.set(d.name, 0, 0, "n/a: not exercised by this workload")
			}
		}
	}
}
