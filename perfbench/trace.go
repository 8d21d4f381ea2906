package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privim/internal/obs"
)

// spanRec is one closed span as the collector saw it.
type spanRec struct {
	id, parent uint64
	trace      string
	name       string
	start, end time.Time
}

func (s *spanRec) dur() time.Duration { return s.end.Sub(s.start) }

// collector is the traced run's observer. It keeps every closed span and
// the layer events the per-layer metrics read in memory, and journals
// every event through an obs.JSONLSink into a buffer that is written out
// when the run ends.
type collector struct {
	sink    *obs.JSONLSink
	journal bytes.Buffer // written only through sink, read after the run

	mu     sync.Mutex
	open   map[uint64]*spanRec
	spans  []*spanRec
	events []obs.Event
}

func newCollector() *collector {
	c := &collector{open: make(map[uint64]*spanRec)}
	c.sink = obs.NewJSONLSink(&c.journal)
	return c
}

// Emit implements obs.Observer.
func (c *collector) Emit(e obs.Event) {
	now := time.Now()
	c.sink.Emit(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev := e.(type) {
	case obs.SpanStart:
		c.open[ev.ID] = &spanRec{id: ev.ID, parent: ev.Parent, trace: ev.Trace, name: ev.Span, start: now}
	case obs.SpanEnd:
		if s, ok := c.open[ev.ID]; ok {
			s.end = now
			delete(c.open, ev.ID)
			c.spans = append(c.spans, s)
		}
	case obs.ParallelFor, obs.ExtractionDone, obs.MCBatchDone, obs.SeedSelected:
		c.events = append(c.events, e)
	}
}

// snapshot returns the closed spans and layer events collected so far.
func (c *collector) snapshot() ([]*spanRec, []obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*spanRec(nil), c.spans...), append([]obs.Event(nil), c.events...)
}

// writeJournal writes the journal to dir/<stem>.jsonl, converts it to a
// Chrome trace dir/<stem>.json the way cmd/tracecat does, and validates
// the conversion the way `tracecat -check` does.
func (c *collector) writeJournal(dir, stem string) (string, error) {
	if err := c.sink.Flush(); err != nil {
		return "", fmt.Errorf("journal: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	jpath := filepath.Join(dir, stem+".jsonl")
	if err := os.WriteFile(jpath, c.journal.Bytes(), 0o644); err != nil {
		return "", err
	}
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(bytes.NewReader(c.journal.Bytes()), &trace, ""); err != nil {
		return "", fmt.Errorf("converting journal: %w", err)
	}
	tpath := filepath.Join(dir, stem+".json")
	if err := os.WriteFile(tpath, trace.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(trace.Bytes())); err != nil {
		return "", fmt.Errorf("%s: %w", tpath, err)
	}
	return jpath, nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover.
func selfTimes(spans []*spanRec, children map[uint64][]*spanRec) map[*spanRec]time.Duration {
	self := make(map[*spanRec]time.Duration, len(spans))
	for _, s := range spans {
		self[s] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s *spanRec, kids []*spanRec) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	return total + curB.Sub(curA)
}

// layerOf maps span names to the per-layer metric their self time counts
// toward. Spans named here come from the program (train, module*,
// checkpoint.save, diffusion.estimate, im.celf.select and its parallel
// pass) or from the benchmark's own wrappers around calls that have no
// span inside the program (dataset.features, gnn.score, im.topk).
var layerOf = map[string]string{
	"train":                    "privim.prep_ms",
	"module1.extract":          "sampling.extract_ms",
	"module2.account":          "dp.account_ms",
	"module3.dpsgd":            "privim.dpsgd_ms",
	"checkpoint.save":          "nn.checkpoint_save_ms",
	"dataset.features":         "dataset.features_ms",
	"gnn.score":                "gnn.score_ms",
	"im.topk":                  "im.topk_ms",
	"diffusion.estimate":       "diffusion.estimate_ms",
	"im.celf.select":           "im.celf_ms",
	"parallel.im.celf.initial": "im.celf_ms",
}

// layerRow is one line of the traced run's per-span table.
type layerRow struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// breakdown is the traced run's time attribution.
type breakdown struct {
	rows []layerRow
	// perTrace[metric] lists, per trace that has the layer, the layer's
	// summed self time in milliseconds.
	perTrace map[string][]float64
	// Roots are the summed durations of the root spans named rootName;
	// Unattributed is the summed self time of those roots — the part of
	// their wall time no layer span covers; Attributed is the summed self
	// time of every span below them.
	Roots, Attributed, Unattributed time.Duration
	// unattributedPct lists, per root, its self time as a share of its
	// duration.
	unattributedPct []float64
}

// analyze computes the per-span table and per-layer self times. Spans are
// grouped by trace ID: one trace per pipeline or request.
func analyze(spans []*spanRec, rootName string) breakdown {
	children := make(map[uint64][]*spanRec)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := selfTimes(spans, children)
	b := breakdown{perTrace: make(map[string][]float64)}
	rows := make(map[string]*layerRow)
	byTrace := make(map[string]map[string]time.Duration)
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{Span: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.TotalMs += ms(s.dur())
		r.SelfMs += ms(self[s])
		if s.name == rootName && s.parent == 0 {
			b.Roots += s.dur()
			b.Unattributed += self[s]
			b.Attributed += descendantSelf(s, children, self)
			if s.dur() > 0 {
				b.unattributedPct = append(b.unattributedPct, 100*float64(self[s])/float64(s.dur()))
			}
		}
		if m, ok := layerOf[s.name]; ok {
			if byTrace[s.trace] == nil {
				byTrace[s.trace] = make(map[string]time.Duration)
			}
			byTrace[s.trace][m] += self[s]
		}
	}
	traces := make([]string, 0, len(byTrace))
	for t := range byTrace {
		traces = append(traces, t)
	}
	sort.Strings(traces)
	for _, t := range traces {
		for m, d := range byTrace[t] {
			b.perTrace[m] = append(b.perTrace[m], ms(d))
		}
	}
	for _, r := range rows {
		b.rows = append(b.rows, *r)
	}
	sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].SelfMs > b.rows[j].SelfMs })
	return b
}

// descendantSelf sums the self times of every span below s.
func descendantSelf(s *spanRec, children map[uint64][]*spanRec, self map[*spanRec]time.Duration) time.Duration {
	var t time.Duration
	for _, c := range children[s.id] {
		t += self[c] + descendantSelf(c, children, self)
	}
	return t
}

// print writes the per-span table and the attribution summary.
func (b breakdown) print(w io.Writer, rootName string) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range b.rows {
		fmt.Fprintf(w, "%-28s %7d %12.2f %12.2f\n", r.Span, r.Count, r.TotalMs, r.SelfMs)
	}
	if b.Roots > 0 {
		fmt.Fprintf(w, "%s wall %.2f ms = layer self %.2f ms + unattributed %.2f ms (%.2f%%)\n",
			rootName, ms(b.Roots), ms(b.Attributed), ms(b.Unattributed),
			100*float64(b.Unattributed)/float64(b.Roots))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// eventMetrics sets the per-layer metrics read from layer events rather
// than spans: DP-SGD throughput and balance, extraction yield, Monte-Carlo
// throughput, and CELF's evaluation counts at its k-th pick.
func eventMetrics(r readings, events []obs.Event, k int) {
	var samplesPerS, imbalance, simsPerS, celfEvals, lazyPct []float64
	var subgraphs, walks int
	for _, e := range events {
		switch ev := e.(type) {
		case obs.ParallelFor:
			if ev.Site == "train.dpsgd" && ev.Elapsed > 0 {
				samplesPerS = append(samplesPerS, float64(ev.Tasks)/ev.Elapsed.Seconds())
				imbalance = append(imbalance, ev.Imbalance)
			}
		case obs.ExtractionDone:
			subgraphs += ev.Subgraphs
			walks += ev.Walks
		case obs.MCBatchDone:
			simsPerS = append(simsPerS, ev.SimsPerSec)
		case obs.SeedSelected:
			if ev.K == k {
				celfEvals = append(celfEvals, float64(ev.Evaluations))
				lazyPct = append(lazyPct, 100*float64(ev.LookupsSaved)/float64(ev.LookupsSaved+ev.Evaluations))
			}
		}
	}
	r.median("privim.dpsgd_samples_per_s", samplesPerS)
	r.median("parallel.dpsgd_imbalance", imbalance)
	if walks > 0 {
		r.set("sampling.yield_pct", 100*float64(subgraphs)/float64(walks), walks, "subgraphs/walks")
	} else {
		r.set("sampling.yield_pct", 0, 0, "n/a")
	}
	r.median("diffusion.sims_per_s", simsPerS)
	r.median("im.celf_evaluations", celfEvals)
	r.median("im.celf_lazy_pct", lazyPct)
}

// spanMetrics sets every span-derived per-layer metric to the median over
// traces of the layer's self time.
func spanMetrics(r readings, b breakdown) {
	for _, m := range layerOf {
		r.median(m, b.perTrace[m])
	}
}
