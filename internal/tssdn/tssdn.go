// Package tssdn implements the temporospatial SDN baseline of Figure 17
// (Starlink/Aalyria-style controllers [14-16, 37]): each control slot it
// forecasts satellite motion, rebuilds the satellite topology, recomputes
// every satellite's hop-by-hop routes, and pushes the resulting route and
// ISL reconfigurations to the satellites. Its signaling cost is what
// TinyLEO's stable geographic intents eliminate.
package tssdn

import (
	"errors"
	"sort"

	"repro/internal/geom"
	"repro/internal/orbit"
	"repro/internal/routing"
)

// Link is an undirected satellite pair, sorted.
type Link [2]int

func makeLink(a, b int) Link {
	if a > b {
		a, b = b, a
	}
	return Link{a, b}
}

// maxISLsPerSat is the laser terminal budget (3 in §6.1). ISLs obey
// orbit.DefaultISLParams.
const maxISLsPerSat = 3

// Config parameterizes the baseline controller.
type Config struct {
	Sats []orbit.Elements
	// RouteAggregation enables the "+RA" variant of Figure 17: route
	// entries are aggregated per destination group (groupOf) rather than
	// per destination satellite.
	RouteAggregation bool
}

// SlotStats is one control slot's accounting.
type SlotStats struct {
	Time         float64
	ISLs         int   // established ISLs this slot
	ISLChanges   int   // links added + removed vs previous slot
	RouteUpdates int64 // changed routing-table entries pushed to satellites
	Messages     int64 // total southbound messages: 2/ISL change + 1/route update
}

// Controller holds cross-slot state.
type Controller struct {
	cfg        Config
	prevLinks  map[Link]bool
	prevRoutes map[[2]int]int // (satellite, destKey) -> next hop
	started    bool
}

// New validates and creates a controller.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Sats) < 2 {
		return nil, errors.New("tssdn: need at least two satellites")
	}
	return &Controller{cfg: cfg, prevRoutes: map[[2]int]int{}}, nil
}

// Topology builds this slot's satellite topology: candidate ISLs are all
// visible pairs, greedily accepted shortest-first under each satellite's
// terminal budget (the standard nearest-neighbor motif).
func (c *Controller) Topology(t float64) []Link {
	n := len(c.cfg.Sats)
	pos := make([]geom.Vec3, n)
	for i, e := range c.cfg.Sats {
		pos[i] = e.PositionECI(t)
	}
	type cand struct {
		l Link
		d float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if orbit.DefaultISLParams.Visible(pos[i], pos[j]) {
				cands = append(cands, cand{makeLink(i, j), pos[i].Dist(pos[j])})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return lessLink(cands[a].l, cands[b].l)
	})
	degree := make([]int, n)
	var links []Link
	for _, cd := range cands {
		if degree[cd.l[0]] < maxISLsPerSat && degree[cd.l[1]] < maxISLsPerSat {
			degree[cd.l[0]]++
			degree[cd.l[1]]++
			links = append(links, cd.l)
		}
	}
	sort.Slice(links, func(a, b int) bool { return lessLink(links[a], links[b]) })
	return links
}

func lessLink(a, b Link) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Step runs one control slot at time t and returns its signaling stats.
func (c *Controller) Step(t float64) SlotStats {
	stats := SlotStats{Time: t}
	links := c.Topology(t)
	stats.ISLs = len(links)

	// ISL reconfigurations.
	cur := make(map[Link]bool, len(links))
	for _, l := range links {
		cur[l] = true
	}
	if c.started {
		for l := range cur {
			if !c.prevLinks[l] {
				stats.ISLChanges++
			}
		}
		for l := range c.prevLinks {
			if !cur[l] {
				stats.ISLChanges++
			}
		}
	} else {
		stats.ISLChanges = len(links)
	}
	c.prevLinks = cur

	// Hop-by-hop routing tables toward each destination.
	n := len(c.cfg.Sats)
	g := routing.NewGraph(n)
	pos := make([]geom.Vec3, n)
	for i, e := range c.cfg.Sats {
		pos[i] = e.PositionECI(t)
	}
	for _, l := range links {
		g.AddBiEdge(l[0], l[1], pos[l[0]].Dist(pos[l[1]]))
	}
	newRoutes := map[[2]int]int{}
	for d := 0; d < n; d++ {
		parent, _ := g.ShortestPathTree(d, nil)
		key := d
		if c.cfg.RouteAggregation {
			key = groupOf(d)
		}
		for s := 0; s < n; s++ {
			if s == d || parent[s] < 0 {
				continue
			}
			rk := [2]int{s, key}
			// With aggregation, the first destination of a group fixes the
			// entry; later destinations in the same group don't add entries
			// (that is the aggregation saving).
			if _, exists := newRoutes[rk]; !exists {
				newRoutes[rk] = parent[s]
			}
		}
	}
	for rk, nh := range newRoutes {
		if old, ok := c.prevRoutes[rk]; !ok || old != nh {
			stats.RouteUpdates++
		}
	}
	for rk := range c.prevRoutes {
		if _, ok := newRoutes[rk]; !ok {
			stats.RouteUpdates++ // withdrawn entry
		}
	}
	c.prevRoutes = newRoutes
	c.started = true

	stats.Messages = int64(2*stats.ISLChanges) + stats.RouteUpdates
	return stats
}

// groupOf maps a destination satellite to its route aggregation group:
// 8 consecutive indices, a stable prefix-style group.
func groupOf(d int) int { return d / 8 }
