package parallel

import (
	"context"
	"time"

	"privim/internal/obs"
)

// ForObservedCtx is ForCtx wrapped in observability: the fan-out runs
// inside a child span of parent named "parallel.<site>" and emits one
// obs.ParallelFor event to the parent's observer, so kernel-level
// concurrency shows up in traces and metrics without every call site
// hand-rolling the bookkeeping. The ParallelFor event is emitted even on
// a canceled call (its Chunks count then reflects the partial
// execution), so traces show where a canceled request actually stopped.
// A nil parent degrades to plain ForCtx — zero events, zero allocations
// — preserving the nil-observer contract of the instrumented pipelines.
func ForObservedCtx(ctx context.Context, parent *obs.Span, site string, workers, n, grain int, fn func(worker, lo, hi int)) (Stats, error) {
	if parent == nil {
		return ForCtx(ctx, workers, n, grain, fn)
	}
	sp := parent.Child("parallel." + site)
	start := time.Now()
	st, err := ForCtx(ctx, workers, n, grain, fn)
	sp.End()
	obs.Emit(parent.Observer(), obs.ParallelFor{
		Site:      site,
		Workers:   st.Workers,
		Tasks:     n,
		Chunks:    st.Chunks,
		Imbalance: st.Imbalance(),
		Elapsed:   time.Since(start),
	})
	return st, err
}
