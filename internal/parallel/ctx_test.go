package parallel

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// A completed ForCtx must execute exactly the work For does — same index
// coverage, so call sites writing disjoint ranges get bit-identical
// output at any worker count.
func TestForCtxMatchesFor(t *testing.T) {
	const n = 1003
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), cancelable} {
		for _, workers := range []int{1, 2, 4, 7} {
			ref := make([]float64, n)
			For(workers, n, 16, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					ref[i] = math.Sqrt(float64(i)) * 1.5
				}
			})
			got := make([]float64, n)
			st, err := ForCtx(ctx, workers, n, 16, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					got[i] = math.Sqrt(float64(i)) * 1.5
				}
			})
			if err != nil {
				t.Fatalf("%v workers=%d: unexpected error %v", ctx, workers, err)
			}
			if want := (n + 15) / 16; st.Chunks != want {
				t.Fatalf("%v workers=%d: ran %d chunks, want %d", ctx, workers, st.Chunks, want)
			}
			for i := range ref {
				if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%v workers=%d: output diverges at %d: %v vs %v", ctx, workers, i, ref[i], got[i])
				}
			}
		}
	}
}

// TestForSteadyStateZeroAlloc pins the inline serial path at zero
// allocations under every kind of context: nil (plain For), one that can
// never fire, and a cancelable one that has not fired.
func TestForSteadyStateZeroAlloc(t *testing.T) {
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink int
	fn := func(_, lo, hi int) { sink += hi - lo }
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"For", func() { For(1, 100, 10, fn) }},
		{"ForCtx/background", func() { ForCtx(context.Background(), 1, 100, 10, fn) }},
		{"ForCtx/cancelable", func() { ForCtx(cancelable, 1, 100, 10, fn) }},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != 0 {
			t.Errorf("%s allocates %v objects/op, want 0", tc.name, got)
		}
	}
	if sink == 0 {
		t.Fatal("fn never ran")
	}
}

func TestForCtxNilContextDelegates(t *testing.T) {
	var calls atomic.Int64
	st, err := ForCtx(nil, 4, 100, 10, func(_, lo, hi int) { calls.Add(int64(hi - lo)) })
	if err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if calls.Load() != 100 {
		t.Fatalf("nil ctx covered %d of 100 indices", calls.Load())
	}
	if st.Chunks == 0 {
		t.Fatalf("nil ctx reported zero chunks")
	}
}

// A context canceled before the call starts must stop the fan-out
// without running any chunk.
func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		st, err := ForCtx(ctx, workers, 1000, 10, func(_, _, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: %d chunks ran on a dead context", workers, got)
		}
		if st.Chunks != 0 {
			t.Fatalf("workers=%d: Stats.Chunks = %d, want 0", workers, st.Chunks)
		}
	}
}

// Canceling mid-flight stops the remaining chunks: with a serial worker
// the check runs before every chunk, so canceling inside chunk 0 means
// only chunk 0 executes.
func TestForCtxSerialCancelStopsAtChunkBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	st, err := ForCtx(ctx, 1, 100, 10, func(_, _, _ int) {
		ran.Add(1)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d chunks ran after cancel, want exactly 1", got)
	}
	if st.Chunks != 1 {
		t.Fatalf("Stats.Chunks = %d, want 1", st.Chunks)
	}
}

// Cancellation latency: with chunks that take ~1ms, a cancel must
// surface within a small multiple of one grain of work per worker, far
// under the 2s budget the serving layer promises.
func TestForCtxCancelLatency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ForCtx(ctx, 4, 100000, 1, func(_, _, _ int) {
		time.Sleep(time.Millisecond)
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancel took %v, want well under 2s", elapsed)
	}
}
