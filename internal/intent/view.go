package intent

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/routing"
)

// view is a Topology's indexed form: everything a query derives from the
// MinSats and Edges maps, derived once. The maps change only through AddCell
// and Connect, which drop the view; the next query builds a new one. A view
// is never modified after newView returns, except for its lazily built graph
// (under graphOnce) and its tree (an atomic pointer to an immutable tree), so
// any number of goroutines may read one.
type view struct {
	// cells are the declared cells, ascending: cell cells[i] is graph node
	// i, found by binary search.
	cells []int
	// edges are the intent edges (u < v), lexicographic.
	edges [][2]int
	// nbrs[nbrOff[i]:nbrOff[i+1]] are cells[i]'s neighbours, ascending.
	nbrOff []int32
	nbrs   []int

	graphOnce sync.Once
	// graph is the distance-weighted cell graph, built by the first route
	// query. Node i's edges are in the order of its neighbours.
	graph *routing.Graph
	// tree is the Dijkstra tree of the last source a shortest-path query
	// asked about.
	tree atomic.Pointer[spTree]
}

// spTree is one source's shortest-path tree over a view's graph.
type spTree struct {
	src    int // graph node
	parent []int
	dist   []float64
}

// indexed returns t's view, building it if a mutation dropped it.
func (t *Topology) indexed() *view {
	if v := t.view.Load(); v != nil {
		return v
	}
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	if v := t.view.Load(); v != nil {
		return v
	}
	v := newView(t)
	t.view.Store(v)
	return v
}

func newView(t *Topology) *view {
	v := &view{
		cells: make([]int, 0, len(t.MinSats)),
		edges: make([][2]int, 0, len(t.Edges)),
	}
	for u := range t.MinSats {
		v.cells = append(v.cells, u)
	}
	slices.Sort(v.cells)
	for e := range t.Edges {
		v.edges = append(v.edges, e)
	}
	slices.SortFunc(v.edges, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})

	// Counting sort of both directions of every edge: the edges are
	// lexicographic, so each cell's neighbours land ascending (the smaller
	// ones as second endpoints first, then the larger ones as first). An
	// undeclared endpoint (which Verify reports) has no row of its own.
	v.nbrOff = make([]int32, len(v.cells)+1)
	for _, e := range v.edges {
		for _, u := range e {
			if i, ok := v.index(u); ok {
				v.nbrOff[i+1]++
			}
		}
	}
	for i := range v.cells {
		v.nbrOff[i+1] += v.nbrOff[i]
	}
	v.nbrs = make([]int, v.nbrOff[len(v.cells)])
	next := slices.Clone(v.nbrOff[:len(v.cells)])
	for _, e := range v.edges {
		for k, u := range e {
			if i, ok := v.index(u); ok {
				v.nbrs[next[i]] = e[1-k]
				next[i]++
			}
		}
	}
	return v
}

// index returns declared cell u's graph node.
func (v *view) index(u int) (int, bool) { return slices.BinarySearch(v.cells, u) }

// neighbors returns declared cell u's neighbours, ascending, as a shared
// slice.
func (v *view) neighbors(u int) []int {
	i, ok := v.index(u)
	if !ok {
		return nil
	}
	return v.at(i)
}

// at returns cells[i]'s neighbours.
func (v *view) at(i int) []int {
	if v.nbrOff[i] == v.nbrOff[i+1] {
		return nil
	}
	return v.nbrs[v.nbrOff[i]:v.nbrOff[i+1]:v.nbrOff[i+1]]
}

// weighted builds a graph over the declared cells with one edge each way per
// intent edge between declared cells, weighted weight(u, v) with u < v. Node
// i's edges follow cells[i]'s neighbours, ascending: the order Dijkstra's
// equal-cost tie-breaking sees.
func (v *view) weighted(weight func(u, w int) float64) *routing.Graph {
	g := routing.NewGraph(len(v.cells))
	for i, u := range v.cells {
		for _, w := range v.at(i) {
			if j, ok := v.index(w); ok {
				g.AddEdge(i, j, weight(min(u, w), max(u, w)))
			}
		}
	}
	return g
}

// routes returns the distance-weighted cell graph, building it on first use.
func (t *Topology) routes(v *view) *routing.Graph {
	v.graphOnce.Do(func() {
		v.graph = v.weighted(t.Grid.CenterDistance)
		t.graphBuilds.Add(1)
	})
	return v.graph
}

// shortestTree returns the Dijkstra tree from graph node src, reusing the
// last one the view built if it has the same source.
func (t *Topology) shortestTree(v *view, src int) *spTree {
	if tr := v.tree.Load(); tr != nil && tr.src == src {
		return tr
	}
	tr := &spTree{src: src}
	tr.parent, tr.dist = t.routes(v).ShortestPathTree(src, nil)
	v.tree.Store(tr)
	t.treeBuilds.Add(1)
	return tr
}
