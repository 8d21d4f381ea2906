package gnn

import (
	"fmt"
	"math"

	"privim/internal/autodiff"
	"privim/internal/graph"
)

// LossConfig parameterizes the IM probabilistic penalty loss (Eq. 5).
type LossConfig struct {
	// Steps is the diffusion horizon j; Theorem 2 requires j ≤ r (the GNN
	// depth), and the paper's experiments use j = 1.
	Steps int
	// Lambda trades off influence coverage against seed-set size (Eq. 5's λ).
	Lambda float64
}

// IMLoss builds the Eq. 5 loss on the tape:
//
//	L = Σ_u Π_{i=1..j} (1 − p̂_i(u)) + λ Σ_u x_u
//
// where x is the model's seed-probability output and p̂_i is the Theorem 2
// message-passing upper bound on the step-i activation probability,
// p̂_i(u) = φ(Σ_{v∈N(u)} w_vu a_{i-1,v}) with φ = tanh restricted to
// nonnegative inputs (φ(0)=0, saturating at 1).
//
// Note the first term deliberately does NOT credit a node for being a seed
// itself (no (1−x_u) factor): gradients flow only through the p̂ sums, so
// seed mass is pushed toward nodes with large outgoing influence — the
// hubs top-k selection should return. Crediting self-seeding instead
// drives uncoverable low-in-degree nodes to x≈1, which inverts the
// ranking.
//
// adj is the in-adjacency aggregation operator, autodiff.InAdjacency(g):
// training loops evaluate the loss on the same subgraph every iteration,
// so they build it once per subgraph.
//
// The returned node is a 1×1 scalar suitable for Tape.Backward.
func IMLoss(tp *autodiff.Tape, g *graph.Graph, scores *autodiff.Node, cfg LossConfig, adj *autodiff.SparseMat) *autodiff.Node {
	if cfg.Steps < 1 {
		panic(fmt.Sprintf("gnn: IMLoss steps %d < 1", cfg.Steps))
	}
	if scores.Value.Cols != 1 || scores.Value.Rows != g.NumNodes() {
		panic(fmt.Sprintf("gnn: IMLoss scores %dx%d for %d-node graph",
			scores.Value.Rows, scores.Value.Cols, g.NumNodes()))
	}
	if adj.NumRows != g.NumNodes() || adj.NumCols != g.NumNodes() {
		panic(fmt.Sprintf("gnn: IMLoss adjacency %dx%d for %d-node graph",
			adj.NumRows, adj.NumCols, g.NumNodes()))
	}
	// a_0 = x (probability of being active at step 0 = being a seed).
	act := scores
	var survival *autodiff.Node
	for i := 0; i < cfg.Steps; i++ {
		// p̂_{i+1}(u) = φ(Σ_v w_vu a_i(v)); inputs are nonnegative so tanh
		// maps [0,∞) → [0,1) monotonically with φ(0)=0.
		p := autodiff.Tanh(autodiff.SpMM(adj, act))
		if survival == nil {
			survival = autodiff.OneMinus(p)
		} else {
			survival = autodiff.Mul(survival, autodiff.OneMinus(p))
		}
		act = p
	}
	coverage := autodiff.Sum(survival)
	penalty := autodiff.Scale(autodiff.Sum(scores), cfg.Lambda)
	return autodiff.Add(coverage, penalty)
}

// BooleActivationBound returns, for every node, the Theorem 2 / Lemma 7
// upper bound on the 1-step IC activation probability with the exact
// Boole-inequality form φ(x) = min(x, 1):
//
//	p̂(u) = min(Σ_{v∈N(u)} w_vu·x_v, 1) ≥ 1 − Π_{v∈N(u)} (1 − w_vu·x_v)
//
// where x_v ∈ [0,1] is the probability node v is active. The training loss
// uses a smooth φ (tanh) instead; this function keeps the paper's exact
// bound available for verification and analysis.
func BooleActivationBound(g *graph.Graph, active []float64) []float64 {
	n := g.NumNodes()
	if len(active) != n {
		panic(fmt.Sprintf("gnn: BooleActivationBound got %d activations for %d nodes", len(active), n))
	}
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		sum := 0.0
		for _, a := range g.In(graph.NodeID(u)) {
			sum += a.Weight * active[a.To]
		}
		if sum > 1 {
			sum = 1
		}
		out[u] = sum
	}
	return out
}

// ExactOneStepActivation returns the true probability each node is
// activated by one IC step from independent per-node activation
// probabilities: p(u) = 1 − Π_{v∈N(u)} (1 − w_vu·x_v).
func ExactOneStepActivation(g *graph.Graph, active []float64) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		survive := 1.0
		for _, a := range g.In(graph.NodeID(u)) {
			survive *= 1 - a.Weight*active[a.To]
		}
		out[u] = 1 - survive
	}
	return out
}

// ExpectedSpreadUpperBound returns the Theorem 2 / Eq. 4 upper bound
// P̂_j(S) on total influence spread for a fixed (non-differentiable) score
// vector, evaluated with the same φ as IMLoss. Exposed for diagnostics and
// the max-coverage extension.
func ExpectedSpreadUpperBound(g *graph.Graph, scores []float64, steps int) float64 {
	if steps < 1 {
		panic("gnn: ExpectedSpreadUpperBound steps < 1")
	}
	n := g.NumNodes()
	act := append([]float64(nil), scores...)
	survival := make([]float64, n)
	for u := range survival {
		survival[u] = 1 - scores[u]
	}
	next := make([]float64, n)
	for i := 0; i < steps; i++ {
		for u := 0; u < n; u++ {
			sum := 0.0
			for _, a := range g.In(graph.NodeID(u)) {
				sum += a.Weight * act[a.To]
			}
			next[u] = math.Tanh(sum)
		}
		for u := 0; u < n; u++ {
			survival[u] *= 1 - next[u]
		}
		act, next = next, act
	}
	total := 0.0
	for _, s := range survival {
		total += 1 - s
	}
	return total
}
