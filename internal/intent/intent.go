// Package intent implements TinyLEO's geographic traffic-engineering
// intent abstraction (paper §4.2): operators define a topology G(V, E, N)
// over geographic cells — each node a cell with a guaranteed satellite
// count n_u, each edge a required number of inter-cell ISLs n_{u,v} — plus
// hop-by-hop geographic routes on top of it. The package also provides the
// paper's northbound intent verifier (§5): per-cell capacity, inter-cell
// ISL visibility, topology connectivity, and route reachability and
// loop-freedom.
package intent

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/geom"
)

// Topology is the geographic topology intent G(V, E, N).
type Topology struct {
	Grid *geo.Grid
	// MinSats[u] is n_u: the guaranteed number of available satellites
	// over cell u (from the sparsifier's supply-demand match).
	MinSats map[int]int
	// Edges[{u,v}] (u < v) is n_{u,v}: the required ISL count between
	// connected cells.
	Edges map[[2]int]int

	// view is the indexed form of the two maps that every query reads:
	// built by the first query after a change (under viewMu, so once),
	// dropped by AddCell and Connect, the only writers of the maps.
	view   atomic.Pointer[view]
	viewMu sync.Mutex
	// graphBuilds and treeBuilds count the route graphs and Dijkstra trees
	// the queries built.
	graphBuilds, treeBuilds atomic.Int64
}

// NewTopology creates an empty intent over a grid.
func NewTopology(g *geo.Grid) *Topology {
	return &Topology{Grid: g, MinSats: map[int]int{}, Edges: map[[2]int]int{}}
}

// AddCell declares cell u with guaranteed satellite count n.
func (t *Topology) AddCell(u, n int) {
	t.MinSats[u] = n
	t.view.Store(nil)
}

// Connect requires n ISLs between cells u and v.
func (t *Topology) Connect(u, v, n int) {
	if u == v {
		panic("intent: self edge")
	}
	t.Edges[edgeKey(u, v)] = n
	t.view.Store(nil)
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// EdgeDemand returns n_{u,v} (0 if unconnected).
func (t *Topology) EdgeDemand(u, v int) int { return t.Edges[edgeKey(u, v)] }

// Cells returns the declared cell IDs in ascending order. The slice is
// shared by every caller until the next AddCell or Connect: do not modify it.
func (t *Topology) Cells() []int { return slices.Clip(t.indexed().cells) }

// Neighbors returns the cells connected to declared cell u, ascending, in a
// slice shared like Cells'.
func (t *Topology) Neighbors(u int) []int { return t.indexed().neighbors(u) }

// EdgeList returns the intent edges sorted lexicographically, in a slice
// shared like Cells'. Graph construction and verification iterate this
// instead of the Edges map so adjacency order — and with it equal-cost route
// tie-breaking and error ordering — is identical across runs.
func (t *Topology) EdgeList() [][2]int { return slices.Clip(t.indexed().edges) }

// VerifyConfig bounds the physical feasibility checks.
type VerifyConfig struct {
	// MaxISLRange is the maximum laser range (m) between satellites of
	// adjacent cells; cells whose center distance exceeds it cannot honor
	// an edge intent.
	MaxISLRange float64
	// MaxISLsPerSat caps how many intent edges a cell can serve given its
	// satellite budget (3 for Starlink-class satellites; 1 terminal is
	// spent per inter-cell gateway assignment, 2 on the intra-cell ring).
	MaxISLsPerSat int
}

// DefaultVerifyConfig matches §6.1's satellite model.
var DefaultVerifyConfig = VerifyConfig{MaxISLRange: 5000e3, MaxISLsPerSat: 3}

// Verify checks the two physical constraints of §4.2 — per-cell satellite
// budget (n_u ≥ Σ_v n_{u,v}) and inter-cell ISL visibility — plus basic
// shape errors. It returns all violations found.
func (t *Topology) Verify(cfg VerifyConfig) []error {
	var errs []error
	for _, e := range t.EdgeList() {
		n := t.Edges[e]
		if n <= 0 {
			errs = append(errs, fmt.Errorf("intent: edge %v has non-positive ISL demand %d", e, n))
		}
		for _, u := range e {
			if _, ok := t.MinSats[u]; !ok {
				errs = append(errs, fmt.Errorf("intent: edge %v references undeclared cell %d", e, u))
			}
		}
		if d := t.Grid.CenterDistance(e[0], e[1]); cfg.MaxISLRange > 0 && d > cfg.MaxISLRange {
			errs = append(errs, fmt.Errorf("intent: cells %d-%d are %.0f km apart, beyond ISL range %.0f km",
				e[0], e[1], d/1e3, cfg.MaxISLRange/1e3))
		}
	}
	for _, u := range t.Cells() {
		n := t.MinSats[u]
		demand := 0
		for _, v := range t.Neighbors(u) {
			demand += t.EdgeDemand(u, v)
		}
		// Each satellite can serve one inter-cell gateway slot (the other
		// terminals carry the ring), so n_u must cover Σ n_{u,v}.
		if demand > n {
			errs = append(errs, fmt.Errorf("intent: cell %d needs %d gateway satellites but only %d guaranteed", u, demand, n))
		}
		if n < 0 {
			errs = append(errs, fmt.Errorf("intent: cell %d has negative satellite count", u))
		}
	}
	return errs
}

// Connected reports whether the intent topology is one connected component
// over its declared edges (isolated declared cells are allowed only if the
// topology has no edges at all).
func (t *Topology) Connected() bool {
	v := t.indexed()
	if len(v.cells) == 0 {
		return true
	}
	if len(v.edges) == 0 {
		return len(v.cells) <= 1
	}
	// Every cell with an edge must be reachable from the first one.
	seen := make([]bool, len(v.cells))
	var stack []int
	withEdges := 0
	for i := range v.cells {
		if len(v.at(i)) > 0 {
			withEdges++
			if stack == nil {
				stack, seen[i] = []int{i}, true
			}
		}
	}
	reached := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		for _, w := range v.at(i) {
			if j, ok := v.index(w); ok && !seen[j] {
				seen[j] = true
				stack = append(stack, j)
			}
		}
	}
	return reached == withEdges
}

// Route is a geographic segment route: the ordered cell list u→w₁→…→v that
// the data plane encodes into packet headers (§4.3).
type Route struct {
	Cells []int
}

// VerifyRoute checks the §4.3 deliverability preconditions the control
// plane must guarantee before installing a route: non-empty, loop-free,
// and every consecutive cell pair connected in the topology intent.
func (t *Topology) VerifyRoute(r Route) error {
	if len(r.Cells) == 0 {
		return fmt.Errorf("intent: empty route")
	}
	seen := map[int]bool{}
	for _, c := range r.Cells {
		if seen[c] {
			return fmt.Errorf("intent: route revisits cell %d (loop)", c)
		}
		seen[c] = true
		if _, ok := t.MinSats[c]; !ok {
			return fmt.Errorf("intent: route crosses undeclared cell %d", c)
		}
	}
	for i := 1; i < len(r.Cells); i++ {
		if t.EdgeDemand(r.Cells[i-1], r.Cells[i]) <= 0 {
			return fmt.Errorf("intent: route hop %d→%d has no ISL intent", r.Cells[i-1], r.Cells[i])
		}
	}
	return nil
}

// Length returns the route's great-circle length (m) over cell centers.
func (t *Topology) Length(r Route) float64 {
	total := 0.0
	for i := 1; i < len(r.Cells); i++ {
		total += t.Grid.CenterDistance(r.Cells[i-1], r.Cells[i])
	}
	return total
}

// PropagationDelay returns the route's one-way speed-of-light delay (s)
// over cell centers — a lower bound on the satellite path delay.
func (t *Topology) PropagationDelay(r Route) float64 {
	return t.Length(r) / geom.C
}
