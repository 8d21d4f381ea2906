// Package dataset generates the synthetic social-network workloads used by
// the benchmark harness. The paper evaluates on SNAP datasets (Table I);
// those downloads are unavailable in this offline build, so each dataset is
// substituted by a generative model matched on the statistics the paper
// reports: node count, directedness, and average degree. Power-law degree
// distributions (preferential attachment) stand in for the social and
// citation networks; small-world rewiring stands in for the geographically
// clustered ones. See DESIGN.md §2 for the substitution rationale.
package dataset

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"privim/internal/graph"
)

// BarabasiAlbert generates a preferential-attachment graph with n nodes
// where each new node attaches m edges to existing nodes with probability
// proportional to degree. Produces the heavy-tailed degree distributions
// characteristic of social networks. The result is undirected.
func BarabasiAlbert(n, m int, rng *rand.Rand) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("dataset: BarabasiAlbert(n=%d, m=%d) requires n > m >= 1", n, m))
	}
	g := graph.NewWithNodes(n, false)
	// repeated holds node IDs once per incident edge endpoint, so sampling
	// uniformly from it implements preferential attachment.
	repeated := make([]graph.NodeID, 0, 2*m*n)
	// Seed clique over the first m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			repeated = append(repeated, graph.NodeID(u), graph.NodeID(v))
		}
	}
	// targets holds the m distinct picks in draw order, so the arc order
	// (and everything seeded downstream of it) is fixed by the rng alone.
	targets := make([]graph.NodeID, 0, m)
	for u := m + 1; u < n; u++ {
		targets = targets[:0]
		for len(targets) < m {
			if v := repeated[rng.Intn(len(repeated))]; !slices.Contains(targets, v) {
				targets = append(targets, v)
			}
		}
		for _, v := range targets {
			g.AddEdge(graph.NodeID(u), v, 1)
			repeated = append(repeated, graph.NodeID(u), v)
		}
	}
	return g
}

// WattsStrogatz generates a small-world graph: a ring lattice over n nodes
// where each node connects to its k nearest neighbors (k even), with each
// edge rewired with probability beta. The result is undirected.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *graph.Graph {
	if k < 2 || k%2 != 0 || k >= n {
		panic(fmt.Sprintf("dataset: WattsStrogatz(n=%d, k=%d) requires even k in [2, n)", n, k))
	}
	if beta < 0 || beta > 1 {
		panic("dataset: WattsStrogatz beta outside [0,1]")
	}
	type key struct{ a, b graph.NodeID }
	norm := func(a, b graph.NodeID) key {
		if a > b {
			a, b = b, a
		}
		return key{a, b}
	}
	edges := make(map[key]bool, n*k/2)
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			v := (u + d) % n
			edges[norm(graph.NodeID(u), graph.NodeID(v))] = true
		}
	}
	// Rewire: each lattice edge (u, u+d) has its far endpoint replaced with
	// probability beta by a uniform non-duplicate target.
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			v := graph.NodeID((u + d) % n)
			e := norm(graph.NodeID(u), v)
			if !edges[e] || rng.Float64() >= beta {
				continue
			}
			// Try a few times to find a fresh endpoint; keep original on failure.
			for try := 0; try < 16; try++ {
				w := graph.NodeID(rng.Intn(n))
				if w == graph.NodeID(u) || edges[norm(graph.NodeID(u), w)] {
					continue
				}
				delete(edges, e)
				edges[norm(graph.NodeID(u), w)] = true
				break
			}
		}
	}
	// Add edges in sorted (a, b) order, not map order, so the same rng
	// always yields the same arc order.
	keys := make([]key, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	slices.SortFunc(keys, func(x, y key) int {
		if x.a != y.a {
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(x.b, y.b)
	})
	g := graph.NewWithNodes(n, false)
	for _, e := range keys {
		g.AddEdge(e.a, e.b, 1)
	}
	return g
}

// ErdosRenyi generates a G(n, m) random graph with exactly m distinct edges
// (no self loops). directed controls arc semantics.
func ErdosRenyi(n, m int, directed bool, rng *rand.Rand) *graph.Graph {
	maxEdges := n * (n - 1)
	if !directed {
		maxEdges /= 2
	}
	if m > maxEdges {
		panic(fmt.Sprintf("dataset: ErdosRenyi m=%d exceeds max %d for n=%d", m, maxEdges, n))
	}
	g := graph.NewWithNodes(n, directed)
	seen := make(map[int64]bool, m)
	for g.NumEdges() < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		a, b := u, v
		if !directed && a > b {
			a, b = b, a
		}
		k := int64(a)<<32 | int64(uint32(b))
		if seen[k] {
			continue
		}
		seen[k] = true
		g.AddEdge(u, v, 1)
	}
	return g
}

// ScaleFreeDirected generates a directed power-law graph with n nodes and
// roughly avgOut outgoing arcs per node; in-degree follows preferential
// attachment so a few hub nodes accumulate many incoming arcs. Used for the
// directed presets (Email, Bitcoin).
func ScaleFreeDirected(n, avgOut int, rng *rand.Rand) *graph.Graph {
	if avgOut < 1 || n < 2 {
		panic("dataset: ScaleFreeDirected requires n >= 2, avgOut >= 1")
	}
	g := graph.NewWithNodes(n, true)
	// in-degree attractiveness: one phantom unit per node so early nodes
	// don't monopolize all attachment.
	repeated := make([]graph.NodeID, 0, n*(avgOut+1))
	for v := 0; v < n; v++ {
		repeated = append(repeated, graph.NodeID(v))
	}
	for u := 0; u < n; u++ {
		// Geometric-ish spread around avgOut keeps total edges ≈ n*avgOut.
		deg := avgOut
		if avgOut > 1 {
			deg = 1 + rng.Intn(2*avgOut-1)
		}
		used := make(map[graph.NodeID]bool, deg)
		for len(used) < deg {
			v := repeated[rng.Intn(len(repeated))]
			if v == graph.NodeID(u) || used[v] {
				// Accept some failed draws to avoid stalling on tiny graphs.
				if len(used) >= n-1 {
					break
				}
				continue
			}
			used[v] = true
			g.AddEdge(graph.NodeID(u), v, 1)
			repeated = append(repeated, v)
		}
	}
	return g
}

// ForestFire generates a graph by the forest-fire process: each new node
// links to an ambassador and recursively "burns" through a geometric number
// of the ambassador's neighbors. Produces densification and heavy tails
// resembling citation networks. p is the forward-burning probability.
func ForestFire(n int, p float64, rng *rand.Rand) *graph.Graph {
	if p < 0 || p >= 1 {
		panic("dataset: ForestFire requires p in [0,1)")
	}
	g := graph.NewWithNodes(n, false)
	if n < 2 {
		return g
	}
	g.AddEdge(0, 1, 1)
	for u := 2; u < n; u++ {
		visited := map[graph.NodeID]bool{graph.NodeID(u): true}
		frontier := []graph.NodeID{graph.NodeID(rng.Intn(u))}
		for len(frontier) > 0 {
			amb := frontier[0]
			frontier = frontier[1:]
			if visited[amb] {
				continue
			}
			visited[amb] = true
			g.AddEdge(graph.NodeID(u), amb, 1)
			// Burn a geometric(1-p) number of amb's neighbors.
			burn := 0
			for rng.Float64() < p {
				burn++
			}
			nbrs := g.Out(amb)
			for i := 0; i < burn && len(nbrs) > 0; i++ {
				cand := nbrs[rng.Intn(len(nbrs))].To
				if !visited[cand] {
					frontier = append(frontier, cand)
				}
			}
			if len(visited) > 1+u/2 {
				break // cap burn size to keep generation near-linear
			}
		}
	}
	return g
}
