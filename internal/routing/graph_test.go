package routing

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// diamond builds:  0 --1-- 1 --1-- 3   and a heavier bypass 0 --1.5-- 2 --1.5-- 3
func diamond() *Graph {
	g := NewGraph(4)
	g.AddBiEdge(0, 1, 1)
	g.AddBiEdge(1, 3, 1)
	g.AddBiEdge(0, 2, 1.5)
	g.AddBiEdge(2, 3, 1.5)
	return g
}

func TestShortestPathBasic(t *testing.T) {
	g := diamond()
	p, w, ok := g.ShortestPath(0, 3)
	if !ok || w != 2 || !reflect.DeepEqual(p, []int{0, 1, 3}) {
		t.Errorf("path=%v w=%v ok=%v", p, w, ok)
	}
	// Trivial path to self.
	p, w, ok = g.ShortestPath(2, 2)
	if !ok || w != 0 || !reflect.DeepEqual(p, []int{2}) {
		t.Errorf("self path=%v w=%v", p, w)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddBiEdge(0, 1, 1)
	if _, _, ok := g.ShortestPath(0, 2); ok {
		t.Error("disconnected node reachable")
	}
}

func TestShortestPathAvoiding(t *testing.T) {
	g := diamond()
	p, w, ok := g.ShortestPathAvoiding(0, 3, func(n int) bool { return n == 1 })
	if !ok || !reflect.DeepEqual(p, []int{0, 2, 3}) || w != 3 {
		t.Errorf("avoiding path=%v w=%v", p, w)
	}
	if _, _, ok := g.ShortestPathAvoiding(0, 3, func(n int) bool { return n == 1 || n == 2 }); ok {
		t.Error("both middle nodes removed should disconnect")
	}
}

func TestDijkstraAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		g := NewGraph(n)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = math.Inf(1)
			}
			w[i][i] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.45 {
					wt := 0.1 + rng.Float64()*10
					g.AddEdge(i, j, wt)
					if wt < w[i][j] {
						w[i][j] = wt
					}
				}
			}
		}
		// Floyd–Warshall reference.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if w[i][k]+w[k][j] < w[i][j] {
						w[i][j] = w[i][k] + w[k][j]
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			_, dist := g.ShortestPathTree(s, nil)
			for d := 0; d < n; d++ {
				if math.Abs(dist[d]-w[s][d]) > 1e-9 && !(math.IsInf(dist[d], 1) && math.IsInf(w[s][d], 1)) {
					t.Fatalf("trial %d: dist[%d->%d] = %v, want %v", trial, s, d, dist[d], w[s][d])
				}
			}
		}
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight accepted")
		}
	}()
	NewGraph(2).AddEdge(0, 1, -1)
}

func TestConnectedComponentSize(t *testing.T) {
	g := NewGraph(5)
	g.AddBiEdge(0, 1, 1)
	g.AddBiEdge(1, 2, 1)
	g.AddBiEdge(3, 4, 1)
	if got := g.ConnectedComponentSize(0); got != 3 {
		t.Errorf("component(0) = %d", got)
	}
	if got := g.ConnectedComponentSize(3); got != 2 {
		t.Errorf("component(3) = %d", got)
	}
}

func TestPathWeight(t *testing.T) {
	g := diamond()
	if w := g.PathWeight([]int{0, 2, 3}); w != 3 {
		t.Errorf("weight = %v", w)
	}
	if w := g.PathWeight([]int{0, 3}); !math.IsInf(w, 1) {
		t.Errorf("missing edge weight = %v", w)
	}
	if w := g.PathWeight([]int{1}); w != 0 {
		t.Errorf("single-node weight = %v", w)
	}
}

func TestKShortestPaths(t *testing.T) {
	g := diamond()
	paths := g.KShortestPaths(0, 3, 3)
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	if !reflect.DeepEqual(paths[0], []int{0, 1, 3}) {
		t.Errorf("first = %v", paths[0])
	}
	if !reflect.DeepEqual(paths[1], []int{0, 2, 3}) {
		t.Errorf("second = %v", paths[1])
	}
}

func TestKShortestLoopless(t *testing.T) {
	// Dense graph: all paths must be simple and sorted by weight.
	rng := rand.New(rand.NewSource(9))
	g := NewGraph(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if rng.Float64() < 0.6 {
				g.AddBiEdge(i, j, 0.5+rng.Float64()*5)
			}
		}
	}
	paths := g.KShortestPaths(0, 7, 5)
	if len(paths) == 0 {
		t.Skip("random graph disconnected")
	}
	prevW := 0.0
	for _, p := range paths {
		seen := map[int]bool{}
		for _, n := range p {
			if seen[n] {
				t.Fatalf("loop in path %v", p)
			}
			seen[n] = true
		}
		if p[0] != 0 || p[len(p)-1] != 7 {
			t.Fatalf("endpoints wrong in %v", p)
		}
		w := g.PathWeight(p)
		if w < prevW-1e-9 {
			t.Fatalf("paths not sorted: %v after %v", w, prevW)
		}
		prevW = w
	}
	// Distinct paths.
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if samePath(paths[i], paths[j]) {
				t.Fatalf("duplicate path %v", paths[i])
			}
		}
	}
}

func TestPathChange(t *testing.T) {
	a := diamond()
	b := diamond()
	pairs := [][2]int{{0, 3}, {1, 2}}
	if n := PathChange(a, b, pairs); n != 0 {
		t.Errorf("identical graphs changed %d paths", n)
	}
	// Remove the cheap middle route in c.
	c := NewGraph(4)
	c.AddBiEdge(0, 2, 1.5)
	c.AddBiEdge(2, 3, 1.5)
	if n := PathChange(a, c, pairs); n != 2 {
		t.Errorf("changed = %d, want 2", n)
	}
}

func TestKShortestNoPath(t *testing.T) {
	g := NewGraph(3)
	g.AddBiEdge(0, 1, 1)
	if paths := g.KShortestPaths(0, 2, 3); paths != nil {
		t.Errorf("disconnected pair yielded %v", paths)
	}
	if paths := g.KShortestPaths(0, 1, 0); paths != nil {
		t.Errorf("k=0 yielded %v", paths)
	}
}

func TestKShortestSelfLoopQuery(t *testing.T) {
	g := diamond()
	paths := g.KShortestPaths(2, 2, 3)
	if len(paths) == 0 || len(paths[0]) != 1 || paths[0][0] != 2 {
		t.Errorf("self query = %v", paths)
	}
}

func TestShortestPathTreeSkipSource(t *testing.T) {
	g := diamond()
	parent, dist := g.ShortestPathTree(0, func(n int) bool { return n == 0 })
	for i, p := range parent {
		if p != -1 {
			t.Errorf("node %d reachable (%d) despite skipped source", i, p)
		}
		if !math.IsInf(dist[i], 1) {
			t.Errorf("node %d finite distance", i)
		}
	}
}

func TestParallelEdgesTakeCheapest(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 2)
	_, w, ok := g.ShortestPath(0, 1)
	if !ok || w != 2 {
		t.Errorf("parallel edges: w=%v ok=%v", w, ok)
	}
	if pw := g.PathWeight([]int{0, 1}); pw != 2 {
		t.Errorf("PathWeight over parallel edges = %v", pw)
	}
}

// TestKShortestRunTwiceIdentical asks twice for 12 of the 70 equal-weight
// shortest corner-to-corner paths of a 5×5 unit-weight grid and requires
// the same paths in the same order: a map-order dependency or a draw from
// the randomly seeded global source would make the two runs differ.
func TestKShortestRunTwiceIdentical(t *testing.T) {
	const side = 5
	solve := func() [][]int {
		g := NewGraph(side * side)
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					g.AddBiEdge(r*side+c, r*side+c+1, 1)
				}
				if r+1 < side {
					g.AddBiEdge(r*side+c, (r+1)*side+c, 1)
				}
			}
		}
		return g.KShortestPaths(0, side*side-1, 12)
	}
	first, second := solve(), solve()
	if len(first) != 12 {
		t.Fatalf("got %d paths, want 12", len(first))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs on one graph differ:\n%v\n%v", first, second)
	}
}

// heapQueue is pq seen through container/heap, the queue ShortestPathTree
// used before pq sifted items itself.
type heapQueue []item

func (q heapQueue) Len() int           { return len(q) }
func (q heapQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q heapQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *heapQueue) Push(x any)        { *q = append(*q, x.(item)) }
func (q *heapQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// TestQueuePopsLikeContainerHeap: pq pops what container/heap pops, ties
// included, so every tree, and with it every route, is the one the heap
// package gave.
func TestQueuePopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q pq
	ref := &heapQueue{}
	for step := 0; step < 20000; step++ {
		if len(q) == 0 || (step < 15000 && rng.Intn(3) > 0) {
			it := item{step, float64(rng.Intn(16))} // many equal distances
			q = q.push(it)
			heap.Push(ref, it)
			continue
		}
		var got item
		got, q = q.pop()
		if want := heap.Pop(ref).(item); got != want {
			t.Fatalf("step %d: popped %+v, container/heap pops %+v", step, got, want)
		}
	}
}

// TestShortestPathTreeAllocations: a tree allocates its parent and dist
// slices and the queue's backing array, and nothing per queue entry. The
// queue starts in the caller's frame, so a frontier of up to queueInFrame
// entries allocates no queue at all.
func TestShortestPathTreeAllocations(t *testing.T) {
	for _, c := range []struct {
		side   int
		allocs float64
	}{
		{8, 2},  // from the centre of an 8×8 grid the frontier fits in the frame
		{20, 3}, // of a 20×20 grid, it outgrows the frame once
	} {
		g := NewGraph(c.side * c.side)
		for r := 0; r < c.side; r++ {
			for k := 0; k+1 < c.side; k++ {
				g.AddBiEdge(r*c.side+k, r*c.side+k+1, 1)   // along row r
				g.AddBiEdge(k*c.side+r, (k+1)*c.side+r, 1) // down column r
			}
		}
		if a := testing.AllocsPerRun(20, func() { g.ShortestPathTree(c.side/2*(c.side+1), nil) }); a != c.allocs {
			t.Errorf("%d×%d grid: ShortestPathTree allocated %v times, want %v", c.side, c.side, a, c.allocs)
		}
	}
}
