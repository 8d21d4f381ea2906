package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// metricDef is one registered metric: the name BENCHMARK.json lists, its
// unit, and whether a lower value is better.
type metricDef struct {
	name  string
	unit  string
	lower bool
}

// endToEnd are the metrics an untraced run (-trace 0) reports: what a user
// of privim or privimd sees, each steady enough across seeds on every
// workload to gate a change. Every workload reports all of them; see
// README.md for what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"pipeline_p50_ms", "ms", true},
	{"pipelines_per_min", "1/min", false},
	{"ok_pct", "%", false},
	{"query_p50_ms", "ms", true},
	{"query_slo_pct", "%", false},
	{"train_job_p50_s", "s", true},
	{"queries_per_s", "1/s", false},
}

// perLayer are the metrics a traced run (-trace 1) reports: one layer of
// the program each, named after its module, and last the end-to-end
// measures whose run-to-run spread on serve-mixed is too wide to gate on
// (the latency tails, the heap peak and the quality of DP-trained models;
// see README.md). A layer a workload does not exercise reports 0 with 0
// samples.
var perLayer = []metricDef{
	{"privim.dpsgd_ms", "ms", true},
	{"privim.dpsgd_samples_per_s", "1/s", false},
	{"parallel.dpsgd_imbalance", "ratio", true},
	{"privim.prep_ms", "ms", true},
	{"sampling.extract_ms", "ms", true},
	{"sampling.yield_pct", "%", false},
	{"dp.account_ms", "ms", true},
	{"dataset.features_ms", "ms", true},
	{"gnn.score_ms", "ms", true},
	{"im.topk_ms", "ms", true},
	{"diffusion.estimate_ms", "ms", true},
	{"diffusion.sims_per_s", "1/s", false},
	{"im.celf_ms", "ms", true},
	{"im.celf_evaluations", "count", true},
	{"im.celf_lazy_pct", "%", false},
	{"serve.seeds_hit_ms", "ms", true},
	{"serve.seeds_miss_ms", "ms", true},
	{"serve.score_ms", "ms", true},
	{"serve.cache_hit_pct", "%", false},
	{"serve.train_submit_ms", "ms", true},
	{"nn.checkpoint_save_ms", "ms", true},
	{"serve.job_queue_wait_ms", "ms", true},
	{"serve.job_run_ms", "ms", true},
	{"serve.rejected", "count", true},
	{"client.late_tail_ms", "ms", true},
	{"go.allocs_per_op", "count", true},
	{"go.gc_pause_ms", "ms", true},
	{"obs.trace_overhead_pct", "%", true},
	{"bench.unattributed_pct", "%", true},
	{"error_rate", "ratio", true},
	{"pipeline_tail_ms", "ms", true},
	{"query_tail_ms", "ms", true},
	{"peak_heap_mb", "MB", true},
	{"spread_nodes", "nodes", false},
	{"coverage_pct", "%", false},
}

// unitOf returns the registered unit of a metric name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: unregistered metric " + name)
}

// reading is one computed metric with the evidence behind it.
type reading struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Note qualifies the value: which percentile a tail is, or why a
	// layer reports nothing on this workload.
	Note string `json:"note,omitempty"`
}

// readings collects a run's metrics by name.
type readings map[string]reading

func (r readings) set(name string, v float64, samples int, note string) {
	r[name] = reading{Value: v, Unit: unitOf(name), Samples: samples, Note: note}
}

// median sets name to the median of xs.
func (r readings) median(name string, xs []float64) {
	if len(xs) == 0 {
		r.set(name, 0, 0, "n/a")
		return
	}
	r.set(name, median(xs), len(xs), "p50")
}

// tail sets name to the tail percentile of xs.
func (r readings) tail(name string, xs []float64) {
	if len(xs) == 0 {
		r.set(name, 0, 0, "n/a")
		return
	}
	v, label := tail(xs)
	r.set(name, v, len(xs), label)
}

// median returns the median of xs (the mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least 10 samples
// above it, with its label ("p90" for 100 samples). With 10 samples or
// fewer no percentile qualifies; tail then returns the median, labelled so,
// because the maximum of a handful of samples is too unsteady to bound.
func tail(xs []float64) (float64, string) {
	s := sorted(xs)
	n := len(s)
	if n <= 10 {
		return median(s), "p50: no percentile has 10 samples above it"
	}
	i := n - 11
	return s[i], "p" + formatPct(100*float64(i+1)/float64(n))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// formatPct renders a percentile to one decimal, dropping a zero fraction.
func formatPct(p float64) string {
	return strconv.FormatFloat(math.Round(p*10)/10, 'f', -1, 64)
}

// setHeap stops h and sets peak_heap_mb to the median 1-second peak.
func setHeap(r readings, h *heapPeak) {
	med, worst, n := h.Stop()
	r.set("peak_heap_mb", med, n, fmt.Sprintf("median of 1 s window peaks; largest %.1f MB", worst))
}
