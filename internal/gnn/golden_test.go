package gnn

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"privim/internal/graph"
)

// goldenGraph is a fixed 24-node directed graph: a ring plus seeded
// chords, so every node has in- and out-arcs and the degrees vary.
func goldenGraph() *graph.Graph {
	const n = 24
	g := graph.NewWithNodes(n, true)
	rng := rand.New(rand.NewSource(11))
	for v := 0; v < n; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n), 0.5)
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.25)
		}
	}
	return g
}

// hashScores is FNV-1a over the scores' IEEE bit patterns, so a pin
// catches any change in the last bit of any score.
func hashScores(s []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestScoreGolden pins the exact Score output of every architecture on a
// fixed graph, features and initialization. Refactors of the forward
// path must leave every bit unchanged; ScoreContext under an
// uncancelable context must match Score bit for bit.
func TestScoreGolden(t *testing.T) {
	want := map[Kind]uint64{
		GRAT:      0xa78cd4134fca2818,
		GraphSAGE: 0x723a30f4410c2add,
		GCN:       0x5f1c129e75fc7b1e,
		GAT:       0x101d10ff53dffa2a,
		GIN:       0xeb5fae0585c9d93a,
	}
	g := goldenGraph()
	for _, kind := range AllKinds() {
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			m, err := New(Config{Kind: kind, InputDim: 4, HiddenDim: 6, Layers: 3, Heads: 2})
			if err != nil {
				t.Fatal(err)
			}
			m.Init(rng)
			x := tinyFeatures(g, 4, rng)
			scores := m.Score(g, x)
			got := hashScores(scores)
			if got != want[kind] {
				t.Fatalf("golden Score hash changed: got %#016x, want %#016x", got, want[kind])
			}
			ctxScores, err := m.ScoreContext(context.Background(), g, x)
			if err != nil {
				t.Fatal(err)
			}
			if hashScores(ctxScores) != got {
				t.Fatal("ScoreContext(Background) differs from Score")
			}
		})
	}
}

// TestScoreContextPreCanceled checks that an already-canceled context
// stops the forward pass before any output is produced.
func TestScoreContextPreCanceled(t *testing.T) {
	g := goldenGraph()
	rng := rand.New(rand.NewSource(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range AllKinds() {
		m, err := New(Config{Kind: kind, InputDim: 4, HiddenDim: 6, Layers: 3})
		if err != nil {
			t.Fatal(err)
		}
		m.Init(rng)
		scores, err := m.ScoreContext(ctx, g, tinyFeatures(g, 4, rng))
		if !errors.Is(err, context.Canceled) || scores != nil {
			t.Fatalf("%s: ScoreContext(canceled) = %v, %v; want nil, context.Canceled", kind, scores, err)
		}
	}
}
