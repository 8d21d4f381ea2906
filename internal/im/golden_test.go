package im

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"privim/internal/diffusion"
	"privim/internal/graph"
)

// goldenGraph builds a seeded random weighted digraph for the golden
// sweeps: n nodes, m arc draws (self-loops and repeats skipped), arc
// weights uniform in (0, maxW].
func goldenGraph(seed int64, n, m int, maxW float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithNodes(n, true)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		w := maxW * (1 - rng.Float64())
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, w)
		}
	}
	return g
}

// hashSeeds folds one seed set into h, terminated so that adjacent sets
// cannot alias.
func hashSeeds(h hash.Hash64, seeds []graph.NodeID) {
	var b [8]byte
	for _, s := range seeds {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], ^uint64(0))
	h.Write(b[:])
}

// goldenSweepGraphs covers sparse, dense, tiny and edgeless inputs, so the
// sweep reaches the all-covered fill path as well as the greedy picks.
func goldenSweepGraphs() []*graph.Graph {
	return []*graph.Graph{
		goldenGraph(1, 30, 60, 0.4),
		goldenGraph(2, 45, 200, 0.3),
		goldenGraph(3, 12, 30, 0.9),
		goldenGraph(4, 60, 120, 0.2),
		graph.NewWithNodes(7, true),
	}
}

// TestRRSolversGolden pins the exact seed sets of RIS (two selections on
// one solver, so the reused arena and cover index are exercised) and IMM
// over a seeded graph × k × MaxDepth sweep. Any change to RR-set
// generation or to the greedy cover order shows up here.
func TestRRSolversGolden(t *testing.T) {
	const (
		wantRIS = uint64(0xb405a8d50422f6f5)
		wantIMM = uint64(0x342d00fc39364ccc)
	)
	hr, hi := fnv.New64a(), fnv.New64a()
	for gi, g := range goldenSweepGraphs() {
		for _, k := range []int{1, 3, 6, 100} {
			for _, depth := range []int{0, 1, 2} {
				seed := int64(100*gi + 10*k + depth)
				r := &RIS{G: g, Samples: 8 * g.NumNodes(), MaxDepth: depth, Seed: seed}
				hashSeeds(hr, r.Select(k))
				hashSeeds(hr, r.Select(k))
				m := &IMM{G: g, MaxDepth: depth, Seed: seed, MaxSamples: 30 * g.NumNodes()}
				hashSeeds(hi, m.Select(k))
			}
		}
	}
	if got := hr.Sum64(); got != wantRIS {
		t.Errorf("RIS golden hash changed: got %#016x, want %#016x", got, wantRIS)
	}
	if got := hi.Sum64(); got != wantIMM {
		t.Errorf("IMM golden hash changed: got %#016x, want %#016x", got, wantIMM)
	}
}

// TestCELFGolden pins CELF's seed sets and its Evaluations count (the
// lazy queue's work) on seeded graphs under step-bounded IC.
func TestCELFGolden(t *testing.T) {
	const want = uint64(0x5530a544f02df809)
	h := fnv.New64a()
	var b [8]byte
	for gi, g := range goldenSweepGraphs()[:3] {
		for _, steps := range []int{1, 0} {
			model := &diffusion.IC{G: g, MaxSteps: steps}
			c := &CELF{Model: model, Rounds: 20, Seed: int64(gi + 1), NumNodes: g.NumNodes()}
			hashSeeds(h, c.Select(5))
			binary.LittleEndian.PutUint64(b[:], uint64(c.Evaluations))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("CELF golden hash changed: got %#016x, want %#016x", got, want)
	}
}
