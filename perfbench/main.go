// Command perfbench is the repository benchmark. It runs one workload
// against the program's Go API and privimd's HTTP API, checks every
// output, and prints the metrics BENCHMARK.json registers. See README.md
// for the workloads, the metrics and the layer-to-end-to-end map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload train-email --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics from an untraced run; --trace 1 runs the same
// workload with spans around every layer call and reports the per-layer
// metrics, writing the span journal under .bench_build/out/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"privim/internal/graph"
)

// config is one benchmark run. main fills it from flags with the
// workload's full-size settings; tests shrink it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// scale multiplies the preset graphs' node counts (1 = preset size).
	scale float64
	// fixedOps is how many operations every run completes at least, and
	// the first fixedOps pipelines are the ones spread_nodes and
	// coverage_pct average, so both repeat exactly for a seed.
	fixedOps int
	// qps and jobEvery set serve-mixed's open-loop schedule.
	qps      float64
	jobEvery time.Duration

	// corrupt, when set, rewrites every seed list before it is checked.
	// Tests use it to prove a broken output is caught.
	corrupt func([]graph.NodeID) []graph.NodeID
}

var workloads = map[string]func(config) (*report, error){
	"train-email":    runPipelines,
	"select-bitcoin": runPipelines,
	"serve-mixed":    runServeMixed,
}

func defaultConfig() config {
	return config{
		outDir:   ".bench_build/out",
		setups:   3,
		scale:    1,
		fixedOps: 48,
		qps:      8,
		jobEvery: 4 * time.Second,
	}
}

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: train-email, select-bitcoin or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

func run(cfg config) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	return wl(cfg)
}

// input pins one workload graph: the same seed must regenerate the same
// fingerprint.
type input struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
}

// tally counts operations and failed checks. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// op records one operation; it failed when problems is non-empty.
func (t *tally) op(problems []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		if len(t.failures) < 20 {
			t.failures = append(t.failures, p)
		}
	}
}

// checks accumulates the failed checks of one operation.
type checks []string

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// expectSeeds checks a seed list: exactly k distinct nodes in [0, n).
func (c *checks) expectSeeds(what string, seeds []graph.NodeID, k, n int) {
	c.expect(len(seeds) == k, "%s: %d seeds, want %d", what, len(seeds), k)
	seen := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		c.expect(s >= 0 && int(s) < n, "%s: seed %d out of range [0,%d)", what, s, n)
		c.expect(!seen[s], "%s: duplicate seed %d", what, s)
		seen[s] = true
	}
}

// expectSpread checks an IC spread estimate: finite and at least k.
func (c *checks) expectSpread(what string, spread float64, k int) {
	c.expect(!math.IsNaN(spread) && !math.IsInf(spread, 0) && spread >= float64(k),
		"%s: spread %v, want finite and >= %d", what, spread, k)
}

// report is everything one run measured.
type report struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	Inputs     []input    `json:"inputs"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"`
	Metrics    readings   `json:"metrics"`
	Layers     []layerRow `json:"layers,omitempty"`
	Journal    string     `json:"journal,omitempty"`

	breakdown breakdown
	rootSpan  string
}

func newReport(cfg config) *report {
	return &report{
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Provenance: newProvenance(cfg.seed),
		Metrics:    make(readings),
	}
}

// finish copies the tally into the report and sets ok_pct and error_rate.
func (r *report) finish(t *tally) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.failures
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics.set("error_rate", rate, r.Attempted, "failed/attempted")
	r.Metrics.set("ok_pct", 100*(1-rate), r.Attempted, "(attempted-failed)/attempted")
}

// traceStem names a traced run's journal files.
func traceStem(cfg config) string {
	return fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
}

// print writes the human-readable report, a "report" JSON line with the
// full evidence, and — last — the result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Provenance.Seed, r.Trace)
	prov, _ := json.Marshal(r.Provenance) // plain struct: cannot fail
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, in := range r.Inputs {
		fmt.Fprintf(w, "input %s fingerprint %s |V|=%d |E|=%d\n", in.Name, in.Fingerprint, in.Nodes, in.Edges)
	}
	if r.Trace && len(r.breakdown.rows) > 0 {
		r.breakdown.print(w, r.rootSpan)
	}
	if r.Journal != "" {
		fmt.Fprintf(w, "journal %s (Chrome trace beside it, validated)\n", r.Journal)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %14s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.4f %-6s %8d  %s\n", n, m.Value, m.Unit, m.Samples, m.Note)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	full, err := json.Marshal(r)
	if err != nil {
		full = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "report %s\n", full)
	line, _ := json.Marshal(r.result()) // maps of finite floats: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// result is the contract's last line.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]resultReading `json:"metrics"`
}

type resultReading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the registered metrics for the run's mode: end-to-end
// for an untraced run, per-layer for a traced one. A metric that is
// missing or not finite makes the run incorrect.
func (r *report) result() result {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultReading, len(defs))}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			m.Value = 0
		}
		res.Metrics[d.name] = resultReading{Value: m.Value, Unit: d.unit}
	}
	if res.Attempted < 1 {
		// A run that attempted nothing measured nothing: count it failed.
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}
