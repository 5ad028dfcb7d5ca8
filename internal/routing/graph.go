// Package routing provides the graph algorithms shared by TinyLEO's
// control plane, the TS-SDN baseline, and the evaluation harness: Dijkstra
// shortest paths, BFS reachability, Yen's k-shortest paths, and path-churn
// accounting (Figure 9).
package routing

import "math"

// Graph is a directed weighted graph over nodes 0..n-1. Use AddBiEdge for
// the undirected satellite/cell graphs.
type Graph struct {
	n   int
	adj [][]Edge
}

// Edge is an outgoing edge.
type Edge struct {
	To int
	W  float64
}

// NewGraph creates a graph with n nodes and no edges.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// AddEdge inserts a directed edge u→v with weight w (must be ≥ 0).
func (g *Graph) AddEdge(u, v int, w float64) {
	if w < 0 {
		panic("routing: negative edge weight")
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
}

// AddBiEdge inserts u→v and v→u with weight w.
func (g *Graph) AddBiEdge(u, v int, w float64) {
	g.AddEdge(u, v, w)
	g.AddEdge(v, u, w)
}

// Neighbors returns the outgoing edges of u (not a copy; do not mutate).
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// item is a priority-queue entry for Dijkstra.
type item struct {
	node int
	dist float64
}

// pq is a binary min-heap of items by dist. push and pop sift exactly as
// container/heap's Push and Pop do, so the pop order, and with it every
// tie between equal distances, is the one the heap package gives; they
// take items by value, where container/heap boxes each one in an any.
// Both return the queue rather than write through a pointer, so a queue
// that never leaves its caller's frame can start in it.
type pq []item

// queueInFrame is the capacity ShortestPathTree's queue starts with, on its
// own stack frame; a larger frontier grows it on the heap.
const queueInFrame = 32

func (q pq) push(it item) pq {
	q = append(q, it)
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

func (q pq) pop() (item, pq) {
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return q[n], q[:n]
}

// ShortestPathTree runs Dijkstra from src, returning parent pointers
// (parent[src] = src, parent[unreachable] = -1) and distances (+Inf if
// unreachable). skip, if non-nil, marks nodes to treat as removed.
func (g *Graph) ShortestPathTree(src int, skip func(node int) bool) (parent []int, dist []float64) {
	parent = make([]int, g.n)
	dist = make([]float64, g.n)
	for i := range parent {
		parent[i] = -1
		dist[i] = math.Inf(1)
	}
	if skip != nil && skip(src) {
		return
	}
	dist[src] = 0
	parent[src] = src
	q := append(make(pq, 0, queueInFrame), item{src, 0})
	for len(q) > 0 {
		var it item
		it, q = q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if skip != nil && skip(e.To) {
				continue
			}
			if nd := it.dist + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = it.node
				q = q.push(item{e.To, nd})
			}
		}
	}
	return
}

// ShortestPath returns the minimum-weight path from src to dst (inclusive
// of both), its total weight, and whether dst is reachable.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64, bool) {
	return g.ShortestPathAvoiding(src, dst, nil)
}

// ShortestPathAvoiding is ShortestPath with nodes removed by skip.
func (g *Graph) ShortestPathAvoiding(src, dst int, skip func(int) bool) ([]int, float64, bool) {
	parent, dist := g.ShortestPathTree(src, skip)
	return TreePath(parent, dist, src, dst)
}

// TreePath reads the path from src to dst (inclusive of both), its total
// weight, and whether dst is reachable off the ShortestPathTree rooted at
// src. One tree answers every destination of its source.
func TreePath(parent []int, dist []float64, src, dst int) ([]int, float64, bool) {
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1), false
	}
	n := 1
	for at := dst; at != src; at = parent[at] {
		n++
	}
	path := make([]int, n)
	for at, i := dst, n-1; i >= 0; at, i = parent[at], i-1 {
		path[i] = at
	}
	return path, dist[dst], true
}

// ConnectedComponentSize returns the number of nodes reachable from src
// (including src), ignoring edge weights.
func (g *Graph) ConnectedComponentSize(src int) int {
	seen := make([]bool, g.n)
	stack := []int{src}
	seen[src] = true
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return count
}

// PathWeight sums the edge weights along path; returns +Inf if an edge is
// missing.
func (g *Graph) PathWeight(path []int) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		w := math.Inf(1)
		for _, e := range g.adj[path[i-1]] {
			if e.To == path[i] && e.W < w {
				w = e.W
			}
		}
		if math.IsInf(w, 1) {
			return w
		}
		total += w
	}
	return total
}
