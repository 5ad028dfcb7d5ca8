package intent

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/routing"
)

// This file implements the traffic-engineering policy compilers of §4.2 /
// Figure 18: shortest-path routing, multipath load balancing, risk-area
// detours, and cross-oceanic traffic offloading. Each compiler emits
// geographic Routes over a Topology; the data plane then enforces them via
// segment anycast without further control-plane involvement.

// ShortestPathRoute returns the minimum-distance cell route from src to dst
// over the intent topology. It keeps the Dijkstra tree of the last source it
// was asked about, so a loop over destinations per source runs one Dijkstra a
// source.
func (t *Topology) ShortestPathRoute(src, dst int) (Route, error) {
	v := t.indexed()
	si, ok1 := v.index(src)
	di, ok2 := v.index(dst)
	if !ok1 || !ok2 {
		return Route{}, fmt.Errorf("intent: endpoint not declared (src ok=%v dst ok=%v)", ok1, ok2)
	}
	tr := t.shortestTree(v, si)
	p, _, ok := routing.TreePath(tr.parent, tr.dist, si, di)
	if !ok {
		return Route{}, fmt.Errorf("intent: %d unreachable from %d", dst, src)
	}
	return Route{Cells: remap(p, v.cells)}, nil
}

// MultipathRoutes returns up to k loopless routes from src to dst in
// increasing length order (the multipath load-balancing policy [39]).
func (t *Topology) MultipathRoutes(src, dst, k int) ([]Route, error) {
	v := t.indexed()
	si, ok1 := v.index(src)
	di, ok2 := v.index(dst)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("intent: endpoint not declared")
	}
	paths := t.routes(v).KShortestPaths(si, di, k)
	if len(paths) == 0 {
		return nil, fmt.Errorf("intent: %d unreachable from %d", dst, src)
	}
	out := make([]Route, len(paths))
	for i, p := range paths {
		out[i] = Route{Cells: remap(p, v.cells)}
	}
	return out, nil
}

// DetourRoute returns the shortest route from src to dst that avoids the
// given cells (the risk-detour policy [40, 41], e.g. routing around areas
// under solar-storm risk or political constraints).
func (t *Topology) DetourRoute(src, dst int, avoid map[int]bool) (Route, error) {
	v := t.indexed()
	si, ok1 := v.index(src)
	di, ok2 := v.index(dst)
	if !ok1 || !ok2 {
		return Route{}, fmt.Errorf("intent: endpoint not declared")
	}
	if avoid[src] || avoid[dst] {
		return Route{}, fmt.Errorf("intent: endpoint inside avoided area")
	}
	p, _, ok := t.routes(v).ShortestPathAvoiding(si, di, func(n int) bool { return avoid[v.cells[n]] })
	if !ok {
		return Route{}, fmt.Errorf("intent: no route avoiding %d cells", len(avoid))
	}
	return Route{Cells: remap(p, v.cells)}, nil
}

// OceanicOffloadRoute returns the route from src to dst that prefers ocean
// cells: land-cell hops are penalized by landPenalty (≥1) so transit shifts
// onto satellites over water — the trans-oceanic offloading policy [31]
// shown in Figure 11/18b.
func (t *Topology) OceanicOffloadRoute(src, dst int, landPenalty float64) (Route, error) {
	if landPenalty < 1 {
		landPenalty = 1
	}
	v := t.indexed()
	mask := geo.NewLandMask(t.Grid)
	g := v.weighted(func(u, w int) float64 {
		d := t.Grid.CenterDistance(u, w)
		// Penalize hops by the land fraction at their endpoints.
		lf := (mask.LandFraction(u) + mask.LandFraction(w)) / 2
		return d * (1 + (landPenalty-1)*lf)
	})
	si, ok1 := v.index(src)
	di, ok2 := v.index(dst)
	if !ok1 || !ok2 {
		return Route{}, fmt.Errorf("intent: endpoint not declared")
	}
	p, _, ok := g.ShortestPath(si, di)
	if !ok {
		return Route{}, fmt.Errorf("intent: %d unreachable from %d", dst, src)
	}
	return Route{Cells: remap(p, v.cells)}, nil
}

// remap turns a path of graph nodes into its cells, in place: every path the
// routing package returns is the caller's own.
func remap(path []int, cells []int) []int {
	for i, p := range path {
		path[i] = cells[p]
	}
	return path
}
