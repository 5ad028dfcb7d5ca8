package intent

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/routing"
)

// freshGraph builds the cell graph from scratch off the maps: sorted cells
// and an index map, the edges sorted, one great-circle weight per edge.
func freshGraph(t *Topology, weight func(u, v int) float64) (*routing.Graph, map[int]int, []int) {
	var cells []int
	for u := range t.MinSats {
		cells = append(cells, u)
	}
	sort.Ints(cells)
	idx := map[int]int{}
	for i, u := range cells {
		idx[u] = i
	}
	var edges [][2]int
	for e := range t.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i][0] < edges[j][0] || edges[i][0] == edges[j][0] && edges[i][1] < edges[j][1]
	})
	g := routing.NewGraph(len(cells))
	for _, e := range edges {
		g.AddBiEdge(idx[e[0]], idx[e[1]], weight(e[0], e[1]))
	}
	return g, idx, cells
}

// freshAnswers are every route query's answers for (src, dst), from a graph
// built for the occasion; an unreachable destination reads "unreachable".
func freshAnswers(t *Topology, src, dst int, avoid map[int]bool) string {
	g, idx, cells := freshGraph(t, t.Grid.CenterDistance)
	si, di := idx[src], idx[dst]
	name := func(p []int, ok bool) string {
		if !ok {
			return "unreachable"
		}
		return fmt.Sprint(remap(p, cells))
	}
	sp, _, ok := g.ShortestPath(si, di)
	out := "shortest " + name(sp, ok)
	out += "\nmultipath"
	for _, p := range g.KShortestPaths(si, di, 3) {
		out += " " + name(p, true)
	}
	if avoid[src] || avoid[dst] {
		out += "\ndetour unreachable"
	} else {
		p, _, ok := g.ShortestPathAvoiding(si, di, func(n int) bool { return avoid[cells[n]] })
		out += "\ndetour " + name(p, ok)
	}
	mask := geo.NewLandMask(t.Grid)
	og, _, _ := freshGraph(t, func(u, v int) float64 {
		w := t.Grid.CenterDistance(u, v)
		lf := (mask.LandFraction(u) + mask.LandFraction(v)) / 2
		return w * (1 + 2*lf)
	})
	p, _, ok := og.ShortestPath(si, di)
	return out + "\noceanic " + name(p, ok)
}

// viewAnswers are the same answers from the topology's own queries.
func viewAnswers(t *Topology, src, dst int, avoid map[int]bool) string {
	name := func(r Route, err error) string {
		if err != nil {
			return "unreachable"
		}
		return fmt.Sprint(r.Cells)
	}
	out := "shortest " + name(t.ShortestPathRoute(src, dst))
	out += "\nmultipath"
	rs, _ := t.MultipathRoutes(src, dst, 3)
	for _, r := range rs {
		out += " " + name(r, nil)
	}
	out += "\ndetour " + name(t.DetourRoute(src, dst, avoid))
	return out + "\noceanic " + name(t.OceanicOffloadRoute(src, dst, 3))
}

// Every route query answers what a from-scratch Dijkstra on a freshly built
// graph answers, including after AddCell and Connect calls between queries,
// which must drop the view; so do the view's cell, edge and neighbour lists.
func TestViewAnswersMatchAFreshGraph(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		topo, _ := randomTopology(seed)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 12; step++ {
			checkLists(t, topo)
			cells := slicesOfKeys(topo.MinSats)
			// Source-major, so the kept tree is reused, then one random pair.
			src := cells[rng.Intn(len(cells))]
			pairs := [][2]int{}
			for _, dst := range cells {
				pairs = append(pairs, [2]int{src, dst})
			}
			pairs = append(pairs, [2]int{cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]})
			avoid := map[int]bool{cells[rng.Intn(len(cells))]: true}
			for _, pr := range pairs {
				if pr[0] == pr[1] {
					continue
				}
				want := freshAnswers(topo, pr[0], pr[1], avoid)
				if got := viewAnswers(topo, pr[0], pr[1], avoid); got != want {
					t.Fatalf("seed %d step %d, %d→%d avoiding %v:\n got %s\nwant %s", seed, step, pr[0], pr[1], avoid, got, want)
				}
			}
			mutate(topo, rng)
		}
	}
}

// mutate changes the intent by one of its mutations: a new neighbouring
// cell, with or without its edge, a shortcut between two declared cells, or a
// changed satellite count.
func mutate(topo *Topology, rng *rand.Rand) {
	cells := slicesOfKeys(topo.MinSats)
	u := cells[rng.Intn(len(cells))]
	switch rng.Intn(4) {
	case 0, 1:
		nb := topo.Grid.Neighbors4(u)
		w := nb[rng.Intn(len(nb))]
		if _, ok := topo.MinSats[w]; !ok {
			topo.AddCell(w, 4)
		}
		if rng.Intn(2) == 0 {
			topo.Connect(u, w, 1)
		}
	case 2:
		if w := cells[rng.Intn(len(cells))]; w != u {
			topo.Connect(u, w, 1)
		}
	default:
		topo.AddCell(u, 1+rng.Intn(8))
	}
}

func slicesOfKeys(m map[int]int) []int {
	var out []int
	for u := range m {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// checkLists compares Cells, EdgeList and Neighbors with a scan of the maps.
func checkLists(t *testing.T, topo *Topology) {
	t.Helper()
	cells := slicesOfKeys(topo.MinSats)
	if got := topo.Cells(); !reflect.DeepEqual(got, cells) {
		t.Fatalf("Cells() = %v, want %v", got, cells)
	}
	var edges [][2]int
	for e := range topo.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i][0] < edges[j][0] || edges[i][0] == edges[j][0] && edges[i][1] < edges[j][1]
	})
	if got := topo.EdgeList(); !reflect.DeepEqual(got, edges) {
		t.Fatalf("EdgeList() = %v, want %v", got, edges)
	}
	for _, u := range cells {
		var want []int
		for _, e := range edges {
			if e[0] == u {
				want = append(want, e[1])
			} else if e[1] == u {
				want = append(want, e[0])
			}
		}
		sort.Ints(want)
		if got := topo.Neighbors(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want)
		}
	}
}

// Goroutines sharing one topology, whose view no query has built yet, get
// the routes and neighbour lists one goroutine alone gets. Run it with
// -race.
func TestConcurrentQueriesShareOneView(t *testing.T) {
	build := func() *Topology {
		topo, _ := randomTopology(7)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20; i++ {
			mutate(topo, rng)
		}
		return topo
	}
	serial := build()
	cells := serial.Cells()
	want := map[[2]int]string{}
	for _, src := range cells {
		for _, dst := range cells {
			r, err := serial.ShortestPathRoute(src, dst)
			want[[2]int{src, dst}] = fmt.Sprint(r.Cells, err, serial.Neighbors(dst))
		}
	}

	shared := build()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				// Half the goroutines sweep source-major, half at random:
				// the kept tree changes hands all the time.
				src, dst := cells[i/len(cells)%len(cells)], cells[i%len(cells)]
				if w%2 == 1 {
					src, dst = cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]
				}
				r, err := shared.ShortestPathRoute(src, dst)
				if got := fmt.Sprint(r.Cells, err, shared.Neighbors(dst)); got != want[[2]int{src, dst}] {
					errs <- fmt.Sprintf("%d→%d: got %s, want %s", src, dst, got, want[[2]int{src, dst}])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := shared.graphBuilds.Load(); n != 1 {
		t.Errorf("%d route graphs built for one view, want 1", n)
	}
}

// Work returns how many route graphs and Dijkstra trees t's queries built,
// for the external tests.
func (t *Topology) Work() (graphs, trees int64) {
	return t.graphBuilds.Load(), t.treeBuilds.Load()
}
