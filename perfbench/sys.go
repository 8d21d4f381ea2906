package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// heapPeak samples the live Go heap — the bytes the last GC cycle marked
// live — on a ticker until Stop. It keeps the largest value of each
// window: one window's peak depends on whether a collection happened to
// mark during an allocation burst, so the median over windows is the
// steady peak, and the largest is the run's single worst.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per window
}

const (
	heapMetric = "/gc/heap/live:bytes"
	heapEvery  = 5 * time.Millisecond
	heapWindow = time.Second
)

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	read := func() float64 {
		metrics.Read(s)
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		peak, end := read(), time.Now().Add(heapWindow)
		for {
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, max(peak, read()))
				return
			case now := <-t.C:
				peak = max(peak, read())
				if now.After(end) {
					h.peaks = append(h.peaks, peak)
					peak, end = 0, now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median and the largest window peak
// in MB, and the number of windows.
func (h *heapPeak) Stop() (medianMB, maxMB float64, windows int) {
	close(h.stop)
	<-h.done
	return median(h.peaks), slices.Max(h.peaks), len(h.peaks)
}

// memDelta is the allocation and GC-pause cost of a stretch of work.
type memDelta struct {
	start runtime.MemStats
}

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// stop returns the mallocs and the GC pause (ms) since start.
func (d *memDelta) stop() (mallocs uint64, pauseMs float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return end.Mallocs - d.start.Mallocs, float64(end.PauseTotalNs-d.start.PauseTotalNs) / 1e6
}

// provenance records what the numbers were measured on.
type provenance struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	PrivimWorkers string  `json:"privim_workers"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	QueriesPerSec float64 `json:"queries_per_s,omitempty"`
	JobEvery      string  `json:"job_every,omitempty"`
}

func newProvenance(seed int64) provenance {
	w, ok := os.LookupEnv("PRIVIM_WORKERS")
	if !ok {
		w = "unset"
	}
	return provenance{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		PrivimWorkers: w,
		GoVersion:     runtime.Version(),
		Commit:        gitCommit("."),
		Seed:          seed,
	}
}

// gitCommit reads the checked-out commit from dir/.git without running
// git. It returns "unknown" outside a git checkout.
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
