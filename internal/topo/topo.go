// Package topo generates network topologies for experiments. The paper's
// evaluation inserts "link tables for N nodes with average outdegree of
// three" (§6); RandomConnected reproduces that workload: a ring backbone
// guarantees strong connectivity and random extra edges raise the average
// out-degree to the requested value, all seeded for reproducibility.
package topo

import (
	"fmt"
	"math/rand"
)

// Link is a directed edge with a cost.
type Link struct {
	From, To string
	Cost     int64
}

// Graph is a generated topology.
type Graph struct {
	Nodes []string
	Links []Link
}

// nodeName returns the canonical experiment node name for index i
// ("n0", "n1", ...).
func nodeName(i int) string { return fmt.Sprintf("n%d", i) }

// Options configures generation.
type Options struct {
	// N is the node count.
	N int
	// AvgOutDegree is the target average out-degree (the paper uses 3).
	AvgOutDegree int
	// MaxCost draws link costs uniformly from [1, MaxCost]; 0 or 1 makes
	// all costs 1.
	MaxCost int64
	// Seed makes generation reproducible.
	Seed int64
}

// RandomConnected generates a strongly connected directed graph with the
// requested average out-degree: a directed ring (out-degree 1) plus
// AvgOutDegree-1 random extra out-edges per node (no self-loops, no
// duplicate edges).
func RandomConnected(opts Options) *Graph {
	if opts.N < 2 {
		opts.N = 2
	}
	if opts.AvgOutDegree < 1 {
		opts.AvgOutDegree = 1
	}
	r := rand.New(rand.NewSource(opts.Seed))
	g := &Graph{}
	for i := 0; i < opts.N; i++ {
		g.Nodes = append(g.Nodes, nodeName(i))
	}
	cost := func() int64 {
		if opts.MaxCost <= 1 {
			return 1
		}
		return 1 + r.Int63n(opts.MaxCost)
	}
	seen := make(map[[2]int]bool)
	addEdge := func(i, j int) bool {
		if i == j || seen[[2]int{i, j}] {
			return false
		}
		seen[[2]int{i, j}] = true
		g.Links = append(g.Links, Link{From: g.Nodes[i], To: g.Nodes[j], Cost: cost()})
		return true
	}
	// Ring backbone.
	for i := 0; i < opts.N; i++ {
		addEdge(i, (i+1)%opts.N)
	}
	// Random extra edges. Cap attempts so dense small graphs terminate.
	extra := (opts.AvgOutDegree - 1) * opts.N
	maxAttempts := extra * 20
	for added, attempts := 0, 0; added < extra && attempts < maxAttempts; attempts++ {
		if addEdge(r.Intn(opts.N), r.Intn(opts.N)) {
			added++
		}
	}
	return g
}

// Line generates a bidirectional line topology n0 - n1 - ... with unit
// costs.
func Line(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, nodeName(i))
	}
	for i := 0; i+1 < n; i++ {
		g.Links = append(g.Links,
			Link{From: g.Nodes[i], To: g.Nodes[i+1], Cost: 1},
			Link{From: g.Nodes[i+1], To: g.Nodes[i], Cost: 1})
	}
	return g
}

// Ring generates a unidirectional ring with unit costs.
func Ring(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, nodeName(i))
	}
	for i := 0; i < n; i++ {
		g.Links = append(g.Links, Link{From: g.Nodes[i], To: g.Nodes[(i+1)%n], Cost: 1})
	}
	return g
}

// Star generates a hub-and-spoke topology with bidirectional unit-cost
// links; node n0 is the hub.
func Star(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, nodeName(i))
	}
	for i := 1; i < n; i++ {
		g.Links = append(g.Links,
			Link{From: g.Nodes[0], To: g.Nodes[i], Cost: 1},
			Link{From: g.Nodes[i], To: g.Nodes[0], Cost: 1})
	}
	return g
}

// Custom builds a graph from explicit links, collecting the node set.
func Custom(links []Link) *Graph {
	g := &Graph{Links: links}
	seen := map[string]bool{}
	for _, l := range links {
		for _, n := range []string{l.From, l.To} {
			if !seen[n] {
				seen[n] = true
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	return g
}

// AvgOutDegree returns the average out-degree.
func (g *Graph) AvgOutDegree() float64 {
	if len(g.Nodes) == 0 {
		return 0
	}
	return float64(len(g.Links)) / float64(len(g.Nodes))
}

// Adjacency returns the out-neighbour cost map.
func (g *Graph) Adjacency() map[string]map[string]int64 {
	adj := make(map[string]map[string]int64, len(g.Nodes))
	for _, n := range g.Nodes {
		adj[n] = map[string]int64{}
	}
	for _, l := range g.Links {
		if cur, ok := adj[l.From][l.To]; !ok || l.Cost < cur {
			adj[l.From][l.To] = l.Cost
		}
	}
	return adj
}

// StronglyConnected reports whether every node reaches every other node.
func (g *Graph) StronglyConnected() bool {
	if len(g.Nodes) == 0 {
		return true
	}
	adj := g.Adjacency()
	radj := make(map[string][]string)
	for from, tos := range adj {
		for to := range tos {
			radj[to] = append(radj[to], from)
		}
	}
	reach := func(start string, next func(string) []string) int {
		seen := map[string]bool{start: true}
		stack := []string{start}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range next(cur) {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		return len(seen)
	}
	fwd := reach(g.Nodes[0], func(n string) []string {
		var out []string
		for to := range adj[n] {
			out = append(out, to)
		}
		return out
	})
	bwd := reach(g.Nodes[0], func(n string) []string { return radj[n] })
	return fwd == len(g.Nodes) && bwd == len(g.Nodes)
}

// Dijkstra computes single-source shortest path costs from src, the
// reference oracle for Best-Path correctness tests.
func (g *Graph) Dijkstra(src string) map[string]int64 {
	adj := g.Adjacency()
	dist := map[string]int64{src: 0}
	visited := map[string]bool{}
	for {
		// Linear extraction keeps the oracle simple; graphs are small.
		best := ""
		var bestD int64
		for n, d := range dist {
			if visited[n] {
				continue
			}
			if best == "" || d < bestD {
				best, bestD = n, d
			}
		}
		if best == "" {
			return dist
		}
		visited[best] = true
		for to, c := range adj[best] {
			if d, ok := dist[to]; !ok || bestD+c < d {
				dist[to] = bestD + c
			}
		}
	}
}

// Reachable computes the set of nodes reachable from src (excluding src
// unless on a cycle), the oracle for transitive-closure tests.
func (g *Graph) Reachable(src string) map[string]bool {
	adj := g.Adjacency()
	seen := map[string]bool{}
	var stack []string
	for to := range adj[src] {
		stack = append(stack, to)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for to := range adj[cur] {
			if !seen[to] {
				stack = append(stack, to)
			}
		}
	}
	return seen
}
