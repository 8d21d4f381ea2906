package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"privim/internal/graph"
)

// tinyConfig shrinks a workload to run in a few seconds: small graphs, one
// set-up, a short timed phase and a fast serve-mixed schedule.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 0.5
	cfg.trace = trace
	cfg.outDir = t.TempDir()
	cfg.setups = 1
	cfg.scale = 0.05
	cfg.fixedOps = 2
	cfg.qps = 20
	cfg.jobEvery = 500 * time.Millisecond
	if workload == "serve-mixed" {
		cfg.seconds = 2
	}
	return cfg
}

// exercised lists the per-layer metrics each workload must measure; every
// other per-layer metric reports 0 samples there.
var exercised = map[string][]string{
	"train-email": {
		"privim.dpsgd_ms", "privim.dpsgd_samples_per_s", "parallel.dpsgd_imbalance", "privim.prep_ms",
		"sampling.extract_ms", "sampling.yield_pct", "dp.account_ms", "dataset.features_ms", "gnn.score_ms",
		"im.topk_ms", "diffusion.estimate_ms", "diffusion.sims_per_s", "go.allocs_per_op", "go.gc_pause_ms",
		"obs.trace_overhead_pct", "bench.unattributed_pct", "error_rate",
		"pipeline_tail_ms", "query_tail_ms", "peak_heap_mb", "spread_nodes", "coverage_pct",
	},
	"serve-mixed": {
		"privim.dpsgd_ms", "privim.dpsgd_samples_per_s", "parallel.dpsgd_imbalance", "privim.prep_ms",
		"sampling.extract_ms", "sampling.yield_pct", "dp.account_ms",
		"serve.seeds_hit_ms", "serve.seeds_miss_ms", "serve.score_ms",
		"serve.cache_hit_pct", "serve.train_submit_ms", "nn.checkpoint_save_ms", "serve.job_queue_wait_ms",
		"serve.job_run_ms", "serve.rejected", "client.late_tail_ms", "go.allocs_per_op", "go.gc_pause_ms",
		"bench.unattributed_pct", "error_rate",
		"pipeline_tail_ms", "query_tail_ms", "peak_heap_mb", "spread_nodes", "coverage_pct",
	},
}

func init() {
	exercised["select-bitcoin"] = append(append([]string(nil), exercised["train-email"]...),
		"im.celf_ms", "im.celf_evaluations", "im.celf_lazy_pct")
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, wl := range []string{"train-email", "select-bitcoin", "serve-mixed"} {
		for _, trace := range []bool{false, true} {
			rep, err := run(tinyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", wl, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			want := map[string]bool{}
			for _, m := range exercised[wl] {
				want[m] = true
			}
			for _, d := range endToEnd {
				want[d.name] = true
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s trace=%v: %s missing", wl, trace, d.name)
					case m.Unit != d.unit:
						t.Errorf("%s trace=%v: %s unit %q, want %q", wl, trace, d.name, m.Unit, d.unit)
					case trace && want[d.name] && m.Samples == 0:
						t.Errorf("%s trace=%v: %s has no samples (%s)", wl, trace, d.name, m.Note)
					case !want[d.name] && m.Samples != 0:
						t.Errorf("%s trace=%v: %s has %d samples on a workload that does not exercise it", wl, trace, d.name, m.Samples)
					}
				}
			}
			res := rep.result()
			if !res.Correct {
				t.Errorf("%s trace=%v: result not correct", wl, trace)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range endToEnd {
				if m := rep.Metrics[d.name]; !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end %s is 0", wl, d.name)
				}
			}
			if trace && wl != "serve-mixed" && rep.breakdown.Unattributed+rep.breakdown.Attributed != rep.breakdown.Roots {
				t.Errorf("%s: self times %v + unattributed %v != pipeline wall %v", wl,
					rep.breakdown.Attributed, rep.breakdown.Unattributed, rep.breakdown.Roots)
			}
		}
	}
}

func TestTruncatedSeedsFail(t *testing.T) {
	cfg := tinyConfig(t, "train-email", false)
	cfg.corrupt = func(s []graph.NodeID) []graph.NodeID { return s[:len(s)-1] }
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Metrics["error_rate"].Value == 0 || rep.Metrics["ok_pct"].Value == 100 {
		t.Fatalf("truncated seed lists went unnoticed: failed %d, error_rate %v", rep.Failed, rep.Metrics["error_rate"].Value)
	}
	if rep.result().Correct {
		t.Fatal("a run with failed checks reports correct")
	}
}

func TestQualityRepeatsForSeed(t *testing.T) {
	a, err := run(tinyConfig(t, "select-bitcoin", false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t, "select-bitcoin", false)
	cfg.seconds = 1 // a different number of pipelines must not matter
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spread_nodes", "coverage_pct"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v for the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Inputs[0] != b.Inputs[0] {
		t.Errorf("inputs differ for the same seed: %+v vs %+v", a.Inputs[0], b.Inputs[0])
	}
}

func TestResultLineIsLast(t *testing.T) {
	rep := &report{Metrics: make(readings)}
	for _, d := range endToEnd {
		rep.Metrics.set(d.name, 1.5, 3, "")
	}
	rep.finish(&tally{attempted: 3})
	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, label := tail(xs); v != 90 || label != "p90" {
		t.Errorf("100 samples: tail %v %s, want 90 p90", v, label)
	}
	if v, _ := tail(xs[:10]); v != 95.5 {
		t.Errorf("10 samples: tail %v, want the median 95.5", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []*spanRec{
		{id: 1, trace: "a", name: "pipeline", start: at(0), end: at(100)},
		{id: 2, parent: 1, trace: "a", name: "train", start: at(10), end: at(40)},
		{id: 3, parent: 2, trace: "a", name: "module3.dpsgd", start: at(15), end: at(35)},
		{id: 4, parent: 1, trace: "a", name: "gnn.score", start: at(50), end: at(90)},
	}
	b := analyze(spans, "pipeline")
	if b.Roots != 100*time.Millisecond || b.Unattributed != 30*time.Millisecond || b.Attributed != 70*time.Millisecond {
		t.Fatalf("roots %v unattributed %v attributed %v", b.Roots, b.Unattributed, b.Attributed)
	}
	if got := b.perTrace["privim.prep_ms"]; len(got) != 1 || got[0] != 10 {
		t.Errorf("train self %v, want [10]", got)
	}
	// Overlapping children are counted once.
	kids := []*spanRec{{start: at(10), end: at(40)}, {start: at(30), end: at(60)}, {start: at(70), end: at(80)}}
	if c := covered(spans[0], kids); c != 60*time.Millisecond {
		t.Errorf("covered %v, want 60ms", c)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json registers exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != better {
				t.Errorf("BENCHMARK.json has %+v, the program {%s %s %s}", j, d.name, d.unit, better)
			}
		}
	}
}
