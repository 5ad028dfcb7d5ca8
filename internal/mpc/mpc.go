// Package mpc implements TinyLEO's orbital model predictive controller
// (paper §4.2): the shim layer that compiles a stable geographic topology
// intent G(V, E, N) into a concrete, time-evolving satellite topology.
//
// Per control slot it (1) predicts which satellites cover each intent cell
// from orbital laws, (2) runs a many-to-one Gale–Shapley matching per cell
// to allocate gateway satellites to each neighbor edge, using expected ISL
// lifetime τ as the preference, (3) runs a one-to-one stable matching
// between the gateway sets of adjacent cells to pick concrete ISLs, and
// (4) closes an intra-cell ring over each cell's gateways so segment
// anycast can always walk to the right gateway (§4.3). It also repairs
// unpredictable ISL/satellite failures by incremental re-matching.
package mpc

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/orbit"
	"repro/internal/stablematch"
)

// Control-plane telemetry on the process-wide default registry (free
// unless obs.Enable() was called): the paper's Fig. 15 compile/repair
// latency and Fig. 16/17 enforcement and signaling signals.
var (
	obsCompileSeconds = obs.Default().Histogram("tinyleo_mpc_compile_seconds", obs.DefBuckets)
	obsCompiles       = obs.Default().Counter("tinyleo_mpc_compile_total")
	obsInterLinks     = obs.Default().Gauge("tinyleo_mpc_inter_links")
	obsRingLinks      = obs.Default().Gauge("tinyleo_mpc_ring_links")
	obsDeficitSlots   = obs.Default().Gauge("tinyleo_mpc_gateway_deficit_slots")
	obsEnforcement    = obs.Default().Gauge("tinyleo_mpc_enforcement_ratio")

	obsLinksAdded   = obs.Default().Counter("tinyleo_mpc_links_changed_total", "op", "added")
	obsLinksRemoved = obs.Default().Counter("tinyleo_mpc_links_changed_total", "op", "removed")

	// Delta-compile telemetry: incremental compiles, how many cells'
	// visible sets changed between the last two slots, and the stage-1
	// matchings run. The last keeps the name and label it had when a
	// second outcome, "reused", existed: the frozen bench/ ledger reads
	// both by name (mpc.cells_reused_ratio, now always 0) and its smoke
	// test needs the ratio's denominator; the next [benchmark] PR drops
	// the row and this counter with it.
	obsDeltaCompiles     = obs.Default().Counter("tinyleo_mpc_delta_compile_total")
	obsDeltaChangedCells = obs.Default().Gauge("tinyleo_mpc_delta_changed_cells")
	obsDeltaCellsMatched = obs.Default().Counter("tinyleo_mpc_delta_cells_total", "outcome", "rematched")

	obsRepairs      = obs.Default().Counter("tinyleo_mpc_repair_total")
	obsRepairStage  = map[string]*obs.Histogram{} // report|compute|instruct|total
	obsRepairLinks  = obs.Default().Counter("tinyleo_mpc_repair_new_links_total")
	obsRepairMsgs   = obs.Default().Counter("tinyleo_mpc_repair_messages_total")
	obsRepairFailed = obs.Default().Counter("tinyleo_mpc_repair_unrepaired_total")
)

func init() {
	for _, stage := range []string{"report", "compute", "instruct", "total"} {
		obsRepairStage[stage] = obs.Default().Histogram(
			"tinyleo_mpc_repair_stage_seconds", obs.DefBuckets, "stage", stage)
	}
}

// Config parameterizes a controller.
type Config struct {
	Topo     *intent.Topology
	Sats     []orbit.Elements
	Coverage orbit.CoverageParams
	ISL      orbit.ISLParams
	// LifetimeHorizon/LifetimeStep bound the τ prediction (s). Defaults
	// (for a value ≤ 0): 1800 s horizon, 30 s step. New rejects a NaN or
	// infinite value and a window of more than orbit.MaxWindowSamples
	// samples.
	LifetimeHorizon float64
	LifetimeStep    float64
}

func (c *Config) fillDefaults() error {
	if c.Topo == nil {
		return errors.New("mpc: nil topology intent")
	}
	if len(c.Sats) == 0 {
		return errors.New("mpc: no satellites")
	}
	if c.Coverage.MinElevation == 0 {
		c.Coverage = orbit.DefaultCoverageParams
	}
	if c.ISL.MaxRange == 0 && c.ISL.GrazingMargin == 0 {
		c.ISL = orbit.DefaultISLParams
	}
	for _, v := range []float64{c.LifetimeHorizon, c.LifetimeStep} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mpc: lifetime horizon %v and step %v must be finite", c.LifetimeHorizon, c.LifetimeStep)
		}
	}
	if c.LifetimeHorizon <= 0 {
		c.LifetimeHorizon = 1800
	}
	if c.LifetimeStep <= 0 {
		c.LifetimeStep = 30
	}
	if _, err := orbit.WindowSamples(c.LifetimeHorizon, c.LifetimeStep); err != nil {
		return fmt.Errorf("mpc: %w", err)
	}
	return nil
}

// Link is an undirected satellite pair (indices into Config.Sats), sorted.
type Link [2]int

// MakeLink normalizes the pair order.
func MakeLink(a, b int) Link {
	if a > b {
		a, b = b, a
	}
	return Link{a, b}
}

// Peer returns the other endpoint relative to end, or -1 if end is not an
// endpoint of the link.
func (l Link) Peer(end int) int {
	switch end {
	case l[0]:
		return l[1]
	case l[1]:
		return l[0]
	}
	return -1
}

// Snapshot is one compiled satellite topology.
type Snapshot struct {
	Time float64
	// CellSats[u] lists the satellites homed to intent cell u.
	CellSats map[int][]int
	// Gateways[{u,v}] lists the satellites of u serving the edge toward v
	// (directed key: [0]=home cell, [1]=neighbor cell).
	Gateways map[[2]int][]int
	// InterLinks are the inter-cell gateway ISLs; RingLinks the intra-cell
	// ring ISLs.
	InterLinks []Link
	RingLinks  []Link
	// Deficits[{u,v}] counts gateway slots the matching could not fill
	// (prediction shortfalls; should be rare after sparsification).
	Deficits map[[2]int]int
}

// Links returns all ISLs of the snapshot.
func (s *Snapshot) Links() []Link {
	out := make([]Link, 0, len(s.InterLinks)+len(s.RingLinks))
	out = append(out, s.InterLinks...)
	out = append(out, s.RingLinks...)
	return out
}

// LinkSet returns the snapshot's links as a set.
func (s *Snapshot) LinkSet() map[Link]bool {
	set := make(map[Link]bool, len(s.InterLinks)+len(s.RingLinks))
	for _, l := range s.InterLinks {
		set[l] = true
	}
	for _, l := range s.RingLinks {
		set[l] = true
	}
	return set
}

// Controller compiles intents slot by slot. Compile and Repair are safe
// for concurrent use: the config is read-only after New and all slot
// geometry flows through a concurrency-safe propagation cache.
type Controller struct {
	cfg Config
	// geo holds the propagation inputs and memoizes per-slot geometry
	// across slots (and across Compile/Repair).
	geo *orbit.PropCache
	// footprint[s] is satellite s's coverage angular radius, constant
	// over time for circular orbits, and footprintCos[s] its cosine, the
	// threshold of the slot's coverage query.
	footprint, footprintCos []float64
	// topo is everything the slot pipeline needs that depends on cfg.Topo
	// alone, computed once because the config is read-only after New.
	topo topoPlan
	// deltaMu serializes DeltaCompile calls: the chain compiles every slot
	// in the one scratch it keeps, and the scratch's tables are indexed
	// without a lock of their own because deltaMu's holder is their only
	// user.
	deltaMu sync.Mutex
	//tinyleo:guardedby deltaMu
	delta slotScratch
}

// slotScratch is the working memory of one slot compile: the slot's
// coverage buffers, its position, τ and visibility-run tables, the
// matching stages' buffers and the lists each stage gathers before the
// snapshot takes them at their exact size. Compile allocates one per call;
// the DeltaCompile chain keeps one from its first slot on and reuses it —
// with the slot geometry, which orbit.PropCache.ChainSlot refills in place
// — so a warm slot allocates only what its snapshot holds, and its
// lifetime walks skip the samples the previous slot's runs observed.
type slotScratch struct {
	cover    [][]int // per cell: the slot's coverage lists, views the snapshot keeps
	coverBuf []int   // where SlotGeom.CoverageInto gathers them
	life     orbit.LifeTable
	match    stablematch.Matcher
	taken    []bool // per satellite: already holds a gateway assignment
	sats     []int  // the current cell's unassigned satellites
	w, rw    matrix // τ weights of the current matching, and their transpose
	gateways gatewayLists
	deficits []deficit
	ls       linkScratch
	chain    bool // the DeltaCompile chain's: it takes the chain's slot geometry
}

// deficit is the count of one edge's unfilled gateway slots.
type deficit struct {
	edge  [2]int
	slots int
}

// gatewayLists gathers stage 1's gateway lists one edge after another in
// memory the scratch keeps, and builds the map a snapshot holds at its
// final size: each list is a capacity-capped view of one array of exactly
// their total length, so appending to one reallocates it rather than
// overwrite the next.
type gatewayLists struct {
	edges [][2]int
	ends  []int // ends[i]: where edge i's list ends in sats
	sats  []int // the lists' satellites: append an edge's, then close it
}

func (g *gatewayLists) reset() { g.edges, g.ends, g.sats = g.edges[:0], g.ends[:0], g.sats[:0] }

// close ends the list of edge e: the satellites appended since the last
// close.
func (g *gatewayLists) close(e [2]int) {
	g.edges = append(g.edges, e)
	g.ends = append(g.ends, len(g.sats))
}

// build returns the gathered lists as a map. An empty list is non-nil.
func (g *gatewayLists) build() map[[2]int][]int {
	all := make([]int, len(g.sats))
	copy(all, g.sats)
	out := make(map[[2]int][]int, len(g.edges))
	start := 0
	for i, e := range g.edges {
		end := g.ends[i]
		out[e], start = all[start:end:end], end
	}
	return out
}

// linkScratch is where a snapshot's link lists are gathered before the
// snapshot takes them at their exact length.
type linkScratch struct {
	links   []Link
	members []int // one cell's ring
}

// matrix is a weight matrix whose rows share one reusable backing slice.
type matrix struct {
	rows [][]float64
	buf  []float64
}

// shape returns m as r rows of n columns. The contents are whatever the
// last use left: the caller writes every element.
func (m *matrix) shape(r, n int) [][]float64 {
	if cap(m.buf) < r*n {
		m.buf = make([]float64, r*n)
	}
	m.rows = m.rows[:0]
	for i := 0; i < r; i++ {
		m.rows = append(m.rows, m.buf[i*n:(i+1)*n:(i+1)*n])
	}
	return m.rows
}

// topoPlan is the slot-invariant half of a compile: the intent's cells,
// their centres, neighbour lists and edge demands, the stage-1 matching
// order, and the sorted edge list. Per-cell slices are aligned with cells.
type topoPlan struct {
	cells     []int         // declared cells, ascending
	centers   []geom.LatLon // cell centres, the stage-0 coverage query
	neighbors [][]int       // neighbors[ci]: cells adjacent to cells[ci], ascending
	demand    [][]int       // demand[ci][j]: ISLs required toward neighbors[ci][j]
	// order lists indices into cells, largest total gateway demand first
	// (then lowest cell ID), so shared satellites go where they are
	// scarcest.
	order []int
	edges [][2]int // intent edges (u < v), lexicographic
}

func newTopoPlan(topo *intent.Topology) topoPlan {
	tp := topoPlan{cells: topo.Cells(), edges: topo.EdgeList()}
	n := len(tp.cells)
	tp.centers = make([]geom.LatLon, n)
	tp.neighbors = make([][]int, n)
	tp.demand = make([][]int, n)
	tp.order = make([]int, n)
	total := make([]int, n)
	for ci, u := range tp.cells {
		tp.centers[ci] = topo.Grid.Center(u)
		tp.neighbors[ci] = topo.Neighbors(u)
		tp.demand[ci] = make([]int, len(tp.neighbors[ci]))
		for j, v := range tp.neighbors[ci] {
			tp.demand[ci][j] = topo.EdgeDemand(u, v)
			total[ci] += tp.demand[ci][j]
		}
		tp.order[ci] = ci
	}
	slices.SortStableFunc(tp.order, func(a, b int) int { return cmp.Compare(total[b], total[a]) })
	return tp
}

// New validates the config and creates a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:          cfg,
		geo:          orbit.NewPropCache(cfg.Sats, cfg.ISL, cfg.LifetimeHorizon, cfg.LifetimeStep),
		footprint:    make([]float64, len(cfg.Sats)),
		footprintCos: make([]float64, len(cfg.Sats)),
		topo:         newTopoPlan(cfg.Topo),
		delta:        slotScratch{chain: true},
	}
	for i, e := range cfg.Sats {
		c.footprint[i] = cfg.Coverage.FootprintRadius(e.Altitude())
		c.footprintCos[i] = math.Cos(c.footprint[i])
	}
	return c, nil
}

// Config returns the controller's configuration with its defaults filled
// in: what New needs to build the same controller with one field changed.
func (c *Controller) Config() Config { return c.cfg }

// CacheStats reports the propagation cache's cumulative hit/miss/prune
// counters.
func (c *Controller) CacheStats() orbit.CacheStats { return c.geo.Stats() }

// Compile produces the satellite topology snapshot enforcing the intent at
// time t, in working memory of its own.
func (c *Controller) Compile(t float64) *Snapshot {
	return c.compile(t, &slotScratch{}, nil)
}

// DeltaCompile produces the snapshot Compile(t) would — byte for byte —
// as one slot of a chain: pair-lifetime predictions skip visibility
// samples the previous slots' evaluations already observed (the dominant
// geometry cost), the slot's working memory and geometry are the chain's
// own, reused from slot to slot, and slot geometries older than prev are
// dropped.
// prev anchors the changed-cell gauge; passing nil starts a chain: the
// slot is compiled cold, but in the chain's memory, so the next slot is a
// warm one. Calls are serialized per controller, while Compile and Repair
// may still run concurrently.
func (c *Controller) DeltaCompile(prev *Snapshot, t float64) *Snapshot {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	if prev == nil {
		return c.compile(t, &c.delta, nil)
	}
	// prev's geometry stays for a Repair of prev; older slots are never
	// compiled again (Repair rebuilds one it still needs), and deltaMu
	// orders this eviction with the chain's ChainSlot calls, as the cache
	// requires.
	c.geo.DropSlotsBefore(math.Min(prev.Time, t))
	snap := c.compile(t, &c.delta, prev)
	obsDeltaCompiles.Inc()
	return snap
}

// compile is the three-stage pipeline behind Compile and DeltaCompile,
// run in scratch sc. A non-nil prev marks a warm slot of the chain: it
// changes the telemetry, never the snapshot.
func (c *Controller) compile(t float64, sc *slotScratch, prev *Snapshot) *Snapshot {
	kind := "compile"
	if prev != nil {
		kind = "delta"
	}
	span := obs.StartSpan("mpc.compile", "t", strconv.FormatFloat(t, 'f', 0, 64), "kind", kind)
	start := time.Now()
	defer func() { span.End() }()
	tp := &c.topo
	snap := &Snapshot{Time: t}
	// Stage 0: predict satellite→cell coverage (§4.2 "it first predicts
	// which satellites cover it"). A satellite belongs to every declared
	// cell whose center its footprint covers; the gateway matching below
	// enforces the terminal budget by assigning each satellite to at most
	// one cell's gateway duty. Slot geometry (positions, sub-satellite
	// points, the ISL-range pruning grid) comes from the propagation
	// cache, which shares it with Repair at the same slot time; the chain's
	// own is refilled in the memory of one it evicted.
	var sg *orbit.SlotGeom
	if sc.chain {
		sg = c.geo.ChainSlot(t)
	} else {
		sg = c.geo.Slot(t)
	}
	sc.cover, sc.coverBuf = sg.CoverageInto(sc.cover, sc.coverBuf, tp.centers, c.footprint, c.footprintCos)
	cover, changed, homed := sc.cover, 0, 0
	for ci, u := range tp.cells {
		if prev != nil && !slices.Equal(prev.CellSats[u], cover[ci]) {
			changed++
		}
		if len(cover[ci]) > 0 {
			homed++
		}
	}
	snap.CellSats = make(map[int][]int, homed)
	for ci, u := range tp.cells {
		if len(cover[ci]) > 0 {
			snap.CellSats[u] = cover[ci]
		}
	}
	if prev != nil {
		obsDeltaChangedCells.Set(float64(changed))
	}
	// Every τ the matching stages consult is between two satellites of
	// these coverage lists, at this one slot time.
	lt, mt := &sc.life, &sc.match
	lt.Reset(sg, cover, sc.chain)
	matched := 0

	// Stage 1: per-cell many-to-one gateway matching. Satellites already
	// holding a gateway assignment from an earlier cell are excluded, so
	// each satellite spends at most one terminal on gateway duty (plus two
	// on its home cell's ring). Cells are matched in topoPlan.order. The
	// gateway lists and deficits are gathered in the scratch: each edge
	// {u, v} is written by cell u's turn alone.
	if len(sc.taken) != len(c.cfg.Sats) {
		sc.taken = make([]bool, len(c.cfg.Sats))
	}
	clear(sc.taken)
	gw, deficits := &sc.gateways, sc.deficits[:0]
	gw.reset()
	for _, ci := range tp.order {
		u, neighbors, caps := tp.cells[ci], tp.neighbors[ci], tp.demand[ci]
		sats := sc.sats[:0]
		for _, s := range cover[ci] {
			if !sc.taken[s] {
				sats = append(sats, s)
			}
		}
		sc.sats = sats
		if len(sats) == 0 || len(neighbors) == 0 {
			for j, v := range neighbors {
				deficits = append(deficits, deficit{[2]int{u, v}, caps[j]})
			}
			continue
		}
		// Preference weights: τ_{s,v} = mean predicted ISL lifetime from s
		// to the satellites currently homed in v (Equation in §4.2), each τ
		// from the slot's table (out-of-range pairs contribute exactly 0).
		// Neighbor cells rank satellites by the same lifetime.
		w, rw := sc.w.shape(len(sats), len(neighbors)), sc.rw.shape(len(neighbors), len(sats))
		for i, s := range sats {
			for j, v := range neighbors {
				w[i][j] = lt.MeanLifetime(s, snap.CellSats[v])
				rw[j][i] = w[i][j]
			}
		}
		matched++
		rRank := mt.RanksFromPrefs(mt.PrefsFromWeights(rw, 0), len(sats))
		_, assigned := mt.ManyToOne(mt.PrefsFromWeights(w, 0), rRank, caps)
		for j, v := range neighbors {
			for _, i := range assigned[j] {
				gw.sats = append(gw.sats, sats[i])
				sc.taken[sats[i]] = true
			}
			gw.close([2]int{u, v})
			if d := caps[j] - len(assigned[j]); d > 0 {
				deficits = append(deficits, deficit{[2]int{u, v}, d})
			}
		}
	}
	sc.deficits = deficits
	snap.Gateways = gw.build()
	snap.Deficits = make(map[[2]int]int, len(deficits))
	for _, d := range deficits {
		snap.Deficits[d.edge] = d.slots
	}
	if prev != nil {
		obsDeltaCellsMatched.Add(int64(matched))
	}

	// Stage 2: one-to-one matching of gateway sets across each edge.
	inter := sc.ls.links[:0]
	for _, e := range tp.edges {
		gu := snap.Gateways[[2]int{e[0], e[1]}]
		gv := snap.Gateways[[2]int{e[1], e[0]}]
		if len(gu) == 0 || len(gv) == 0 {
			continue
		}
		w, rw := sc.w.shape(len(gu), len(gv)), sc.rw.shape(len(gv), len(gu))
		for i, s := range gu {
			for j, s2 := range gv {
				w[i][j] = lt.Lifetime(s, s2)
				rw[j][i] = w[i][j]
			}
		}
		rRank := mt.RanksFromPrefs(mt.PrefsFromWeights(rw, 0), len(gu))
		for i, j := range mt.OneToOne(mt.PrefsFromWeights(w, 0), rRank) {
			if j >= 0 {
				inter = append(inter, MakeLink(gu[i], gv[j]))
			}
		}
	}
	slices.SortFunc(inter, cmpLink)
	snap.InterLinks, sc.ls.links = exactLinks(inter), inter
	lt.Flush()

	// Stage 3: intra-cell ring over each cell's gateway satellites.
	snap.RingLinks = c.ringLinks(sg, snap.Gateways, nil, &sc.ls)
	obsCompiles.Inc()
	obsCompileSeconds.ObserveDuration(time.Since(start))
	obsInterLinks.Set(float64(len(snap.InterLinks)))
	obsRingLinks.Set(float64(len(snap.RingLinks)))
	deficit := 0
	for _, d := range snap.Deficits {
		deficit += d
	}
	obsDeficitSlots.Set(float64(deficit))
	if flightrec.Enabled() {
		flightrec.Emit(flightrec.CompMPC, "slot_compiled",
			"t", strconv.FormatFloat(t, 'f', 0, 64),
			"inter", strconv.Itoa(len(snap.InterLinks)),
			"ring", strconv.Itoa(len(snap.RingLinks)),
			"deficit_slots", strconv.Itoa(deficit))
		// Sorted edge order: the flight record is part of the canonical
		// per-seed output, so deficit events must not follow map order.
		for _, key := range sortedDeficitKeys(snap.Deficits) {
			if d := snap.Deficits[key]; d > 0 {
				flightrec.Emit(flightrec.CompMPC, "deficit",
					"edge", flightrec.EdgeKey(key[0], key[1]),
					"slots", strconv.Itoa(d))
			}
		}
		st := flightState(snap, kind)
		// Computing the ratio here also publishes the enforcement gauge
		// before the SLO engine evaluates this slot, so the availability
		// rule never reads a stale pre-compile value.
		st.Enforcement = c.EnforcementRatio(snap)
		flightrec.RecordSlot(st)
	}
	return snap
}

// sortedDeficitKeys returns the deficit edge keys in lexicographic
// order: deficit events land in the flight record, which is diffed
// byte-for-byte across runs, so emission must not follow map order.
func sortedDeficitKeys(m map[[2]int]int) [][2]int {
	keys := make([][2]int, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b [2]int) int { return cmpLink(a, b) })
	return keys
}

// flightState converts a compiled snapshot into the recorder's
// plain-data slot form (O(snapshot) allocation, once per control slot).
func flightState(s *Snapshot, kind string) flightrec.SlotState {
	st := flightrec.SlotState{
		Time:       s.Time,
		Kind:       kind,
		InterLinks: make([][2]int, len(s.InterLinks)),
		RingLinks:  make([][2]int, len(s.RingLinks)),
		CellSats:   make(map[int][]int, len(s.CellSats)),
	}
	for i, l := range s.InterLinks {
		st.InterLinks[i] = [2]int(l)
	}
	for i, l := range s.RingLinks {
		st.RingLinks[i] = [2]int(l)
	}
	for u, sats := range s.CellSats {
		st.CellSats[u] = append([]int(nil), sats...)
	}
	if len(s.Gateways) > 0 {
		st.Gateways = make(map[string][]int, len(s.Gateways))
		for key, gws := range s.Gateways {
			st.Gateways[flightrec.EdgeKey(key[0], key[1])] = append([]int(nil), gws...)
		}
	}
	if len(s.Deficits) > 0 {
		st.Deficits = make(map[string]int, len(s.Deficits))
		for key, d := range s.Deficits {
			st.Deficits[flightrec.EdgeKey(key[0], key[1])] = d
		}
	}
	return st
}

// cmpLink orders links by lower endpoint, then higher: the canonical link
// order of every list a snapshot carries.
func cmpLink(a, b Link) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// DiffLinks returns the ISLs added and removed between snapshots, each in
// canonical link order: the reconfiguration the controller must enforce.
// A nil prev is the bootstrap diff, where every link of cur is added. Each
// side is walked as the set of its links, so a pair a repaired snapshot
// lists as both an inter-cell and a ring link is reported once. One walk
// counts the two lists, a second fills them at exact size (nil when empty).
func DiffLinks(prev, cur *Snapshot) (added, removed []Link) {
	var p linkWalk
	if prev != nil {
		p = walkLinks(prev)
	}
	c := walkLinks(cur)
	nAdded, nRemoved := 0, 0
	diffWalk(p, c, func(_ Link, add bool) {
		if add {
			nAdded++
		} else {
			nRemoved++
		}
	})
	if nAdded > 0 {
		added = make([]Link, 0, nAdded)
	}
	if nRemoved > 0 {
		removed = make([]Link, 0, nRemoved)
	}
	diffWalk(p, c, func(l Link, add bool) {
		if add {
			added = append(added, l)
		} else {
			removed = append(removed, l)
		}
	})
	obsLinksAdded.Add(int64(nAdded))
	obsLinksRemoved.Add(int64(nRemoved))
	return
}

// diffWalk merges the walks of two snapshots' links and visits, in
// canonical order, each link only one side has: add when it is cur's.
func diffWalk(p, c linkWalk, visit func(l Link, add bool)) {
	pl, pok := p.next()
	cl, cok := c.next()
	for pok || cok {
		switch order := cmpLink(pl, cl); {
		case !pok || (cok && order > 0):
			visit(cl, true)
			cl, cok = c.next()
		case !cok || order < 0:
			visit(pl, false)
			pl, pok = p.next()
		default:
			pl, pok = p.next()
			cl, cok = c.next()
		}
	}
}

// linkWalk yields the union of a snapshot's two link lists in canonical
// order, each link once, by merging them: compile, Repair and ringLinks
// leave both lists sorted.
type linkWalk struct{ inter, ring []Link }

// walkLinks starts a walk over s's links. A list that is not in canonical
// order (hand-built snapshots) is walked over a sorted copy, so the walk
// never depends on input order.
func walkLinks(s *Snapshot) linkWalk {
	sorted := func(links []Link) []Link {
		if !slices.IsSortedFunc(links, cmpLink) {
			links = slices.Clone(links)
			slices.SortFunc(links, cmpLink)
		}
		return links
	}
	return linkWalk{inter: sorted(s.InterLinks), ring: sorted(s.RingLinks)}
}

// next returns the walk's next link, or false at the end.
func (w *linkWalk) next() (l Link, ok bool) {
	switch {
	case len(w.inter) == 0 && len(w.ring) == 0:
		return Link{}, false
	case len(w.ring) == 0 || (len(w.inter) > 0 && cmpLink(w.inter[0], w.ring[0]) <= 0):
		l = w.inter[0]
	default:
		l = w.ring[0]
	}
	for len(w.inter) > 0 && w.inter[0] == l {
		w.inter = w.inter[1:]
	}
	for len(w.ring) > 0 && w.ring[0] == l {
		w.ring = w.ring[1:]
	}
	return l, true
}

// SatBatch is one satellite's share of a link diff: the peers to
// establish and to tear down, each in the diff's link order.
type SatBatch struct {
	Sat      int
	Add, Del []uint32
}

// BatchBySatellite groups a link diff by endpoint — every link appears in
// both of its endpoints' batches — and returns one batch per touched
// satellite, satellites ascending: the unit slot-delta enforcement sends
// (southbound.DeltaEnforcer.Push takes exactly these three fields).
func BatchBySatellite(added, removed []Link) []SatBatch {
	bySat := map[int]*SatBatch{}
	batch := func(sat int) *SatBatch {
		b := bySat[sat]
		if b == nil {
			b = &SatBatch{Sat: sat}
			bySat[sat] = b
		}
		return b
	}
	for _, l := range added {
		for _, end := range l {
			b := batch(end)
			b.Add = append(b.Add, uint32(l.Peer(end)))
		}
	}
	for _, l := range removed {
		for _, end := range l {
			b := batch(end)
			b.Del = append(b.Del, uint32(l.Peer(end)))
		}
	}
	out := make([]SatBatch, 0, len(bySat))
	for _, b := range bySat {
		out = append(out, *b)
	}
	slices.SortFunc(out, func(a, b SatBatch) int { return cmp.Compare(a.Sat, b.Sat) })
	return out
}

// EnforcementRatio reports what fraction of the intent's total edge ISL
// demand the snapshot satisfies (Figure 16's enforcement metric).
func (c *Controller) EnforcementRatio(s *Snapshot) float64 {
	totalDemand, satisfied := 0, 0
	for e, n := range c.cfg.Topo.Edges {
		totalDemand += n
		satisfied += min(edgeLinks(s, e), n)
	}
	if totalDemand == 0 {
		obsEnforcement.Set(1)
		return 1
	}
	ratio := float64(satisfied) / float64(totalDemand)
	obsEnforcement.Set(ratio)
	return ratio
}

// edgeLinks counts the inter-cell links of s that serve intent edge e:
// those between the satellites of e[0] and of e[1] gatewaying it.
func edgeLinks(s *Snapshot, e [2]int) int {
	gu, gv := s.Gateways[e], s.Gateways[[2]int{e[1], e[0]}]
	n := 0
	for _, l := range s.InterLinks {
		if slices.Contains(gu, l[0]) && slices.Contains(gv, l[1]) || slices.Contains(gu, l[1]) && slices.Contains(gv, l[0]) {
			n++
		}
	}
	return n
}

// RepairStats summarizes one failure-repair round (Figure 17d).
type RepairStats struct {
	// ReportRTT is the satellite→controller failure-notification delay.
	ReportRTT time.Duration
	// ComputeTime is the measured controller matching time.
	ComputeTime time.Duration
	// InstructRTT is the controller→satellite repair-command delay.
	InstructRTT time.Duration
	// NewLinks are the replacement ISLs installed.
	NewLinks []Link
	// Messages is the southbound signaling count (2 per new link + 1 per
	// failure report).
	Messages int
	// Unrepaired counts failed links with no available replacement.
	Unrepaired int
}

// Total returns the end-to-end repair time.
func (r RepairStats) Total() time.Duration {
	return r.ReportRTT + r.ComputeTime + r.InstructRTT
}

// Repair reacts to unpredictable failures (§4.2 "Repairing unpredictable
// failures"): it removes the failed links/satellites from the snapshot,
// recomputes the residual gateway demand, and incrementally matches
// replacements. rtt models the unavoidable controller round-trip (the
// paper measures 83.5 ms of its 83.8 ms average repair time as RTT).
func (c *Controller) Repair(s *Snapshot, failedLinks []Link, failedSats []int, rtt time.Duration) (*Snapshot, RepairStats) {
	span := obs.StartSpan("mpc.repair",
		"failed_links", strconv.Itoa(len(failedLinks)), "failed_sats", strconv.Itoa(len(failedSats)))
	defer span.End()
	if flightrec.Enabled() {
		for _, l := range failedLinks {
			flightrec.Emit(flightrec.CompMPC, "isl_fail",
				"a", strconv.Itoa(l[0]), "b", strconv.Itoa(l[1]),
				"t", strconv.FormatFloat(s.Time, 'f', 0, 64))
		}
		for _, f := range failedSats {
			flightrec.Emit(flightrec.CompMPC, "sat_fail",
				"sat", strconv.Itoa(f),
				"t", strconv.FormatFloat(s.Time, 'f', 0, 64))
		}
	}
	// ComputeTime is measured wall latency; the repaired topology does not depend on it.
	start := time.Now()
	stats := RepairStats{ReportRTT: rtt / 2, InstructRTT: rtt / 2}
	stats.Messages = len(failedLinks) + len(failedSats)
	dead := map[int]bool{}
	for _, f := range failedSats {
		dead[f] = true
	}
	failSet := map[Link]bool{}
	for _, l := range failedLinks {
		failSet[l] = true
	}
	out := &Snapshot{
		Time:     s.Time,
		CellSats: filterLists(s.CellSats, dead, false),
		Deficits: make(map[[2]int]int, len(s.Deficits)),
	}
	for k, d := range s.Deficits {
		out.Deficits[k] = d
	}
	// Remaining healthy inter-links and their gateway assignments. A
	// failed link's edge loses one ISL and its endpoints' gateway slots
	// reopen: each satellite holds at most one gateway duty, so dropping
	// the endpoints from every list is exact.
	busy := make([]bool, len(c.cfg.Sats)) // satellites already serving a gateway link
	gone := maps.Clone(dead)              // satellites that leave every gateway list
	for _, l := range s.InterLinks {
		if failSet[l] || dead[l[0]] || dead[l[1]] {
			gone[l[0]], gone[l[1]] = true, true
			continue
		}
		out.InterLinks = append(out.InterLinks, l)
		busy[l[0]], busy[l[1]] = true, true
	}
	out.Gateways = filterLists(s.Gateways, gone, true)
	// Reuse the compiled slot's cached geometry: Repair runs at the same
	// slot time as the Compile that produced s (a geometry the delta chain
	// has since evicted is rebuilt). The few candidate τ it needs are
	// computed directly.
	sg := c.geo.Slot(s.Time)
	// Iterate intent edges in a fixed order: replacement satellites are a
	// shared resource (the busy map), so map-order iteration would let the
	// runtime's randomized order decide which edge wins a scarce satellite
	// and produce different repaired topologies for identical inputs.
	// Satisfied ISLs are counted as EnforcementRatio counts them.
	for _, e := range c.topo.edges {
		n := c.cfg.Topo.Edges[e]
		have := edgeLinks(out, e)
		for have < n {
			a, b, ok := c.bestReplacement(sg, out, e, busy, failSet)
			if !ok {
				stats.Unrepaired += n - have
				break
			}
			l := MakeLink(a, b)
			out.InterLinks = append(out.InterLinks, l)
			out.Gateways[[2]int{e[0], e[1]}] = appendUnique(out.Gateways[[2]int{e[0], e[1]}], a)
			out.Gateways[[2]int{e[1], e[0]}] = appendUnique(out.Gateways[[2]int{e[1], e[0]}], b)
			busy[a], busy[b] = true, true
			stats.NewLinks = append(stats.NewLinks, l)
			stats.Messages += 2
			have++
			if flightrec.Enabled() {
				// Counterpart of the isl_fail emission above: the inspector
				// pairs them to render per-link repair timelines.
				flightrec.Emit(flightrec.CompMPC, "isl_add",
					"a", strconv.Itoa(l[0]), "b", strconv.Itoa(l[1]),
					"edge", fmt.Sprintf("%d-%d", e[0], e[1]),
					"t", strconv.FormatFloat(s.Time, 'f', 0, 64))
			}
		}
	}
	slices.SortFunc(out.InterLinks, cmpLink)
	// Rebuild rings from the (possibly changed) gateway sets.
	out.RingLinks = c.ringLinks(sg, out.Gateways, failSet, &linkScratch{})
	// Ring links to establish are also instructions.
	ringAdded, _ := DiffLinks(&Snapshot{InterLinks: s.RingLinks}, &Snapshot{InterLinks: out.RingLinks})
	stats.Messages += 2 * len(ringAdded)
	stats.ComputeTime = time.Since(start)
	stats.observe()
	if flightrec.Enabled() {
		flightrec.Emit(flightrec.CompMPC, "repair",
			"new_links", strconv.Itoa(len(stats.NewLinks)),
			"messages", strconv.Itoa(stats.Messages),
			"unrepaired", strconv.Itoa(stats.Unrepaired),
			"total_ms", strconv.FormatFloat(stats.Total().Seconds()*1e3, 'f', 1, 64))
		if stats.Unrepaired == 0 {
			flightrec.Emit(flightrec.CompMPC, "recovered",
				"inter", strconv.Itoa(len(out.InterLinks)))
		} else {
			flightrec.Emit(flightrec.CompMPC, "degraded",
				"unrepaired", strconv.Itoa(stats.Unrepaired))
		}
		st := flightState(out, "repair")
		// As in Compile: publish the post-repair enforcement gauge before
		// the SLO evaluation this RecordSlot triggers.
		st.Enforcement = c.EnforcementRatio(out)
		flightrec.RecordSlot(st)
	}
	return out, stats
}

// observe records the repair round on the default telemetry registry
// (Fig. 15 repair-latency stages, Fig. 17 signaling counts).
func (r RepairStats) observe() {
	obsRepairs.Inc()
	obsRepairStage["report"].ObserveDuration(r.ReportRTT)
	obsRepairStage["compute"].ObserveDuration(r.ComputeTime)
	obsRepairStage["instruct"].ObserveDuration(r.InstructRTT)
	obsRepairStage["total"].ObserveDuration(r.Total())
	obsRepairLinks.Add(int64(len(r.NewLinks)))
	obsRepairMsgs.Add(int64(r.Messages))
	obsRepairFailed.Add(int64(r.Unrepaired))
}

// filterLists returns m's lists without the satellites in gone, in a map
// made at its exact size whose lists are capacity-capped views of one
// array of exactly the satellites kept, as a compiled snapshot's are. A
// list left empty is nil, or absent unless keepEmpty.
func filterLists[K comparable](m map[K][]int, gone map[int]bool, keepEmpty bool) map[K][]int {
	total, lists := 0, 0
	for _, list := range m {
		kept := 0
		for _, x := range list {
			if !gone[x] {
				kept++
			}
		}
		total += kept
		if kept > 0 || keepEmpty {
			lists++
		}
	}
	all, out := make([]int, 0, total), make(map[K][]int, lists)
	for k, list := range m {
		start := len(all)
		for _, x := range list {
			if !gone[x] {
				//lint:tinyleo-ignore where a list lands in the shared array is unobservable: each key gets the same values in the same order
				all = append(all, x)
			}
		}
		switch end := len(all); {
		case end > start:
			out[k] = all[start:end:end]
		case keepEmpty:
			out[k] = nil
		}
	}
	return out
}

// linkServesEdge reports whether a link's endpoints cover the edge's two
// cells (used by tests to validate compiled links).
func (c *Controller) linkServesEdge(s *Snapshot, l Link, e [2]int) bool {
	inCell := func(sat, cell int) bool {
		for _, x := range s.CellSats[cell] {
			if x == sat {
				return true
			}
		}
		return false
	}
	return (inCell(l[0], e[0]) && inCell(l[1], e[1])) || (inCell(l[0], e[1]) && inCell(l[1], e[0]))
}

// bestReplacement finds the longest-lived available satellite pair across
// edge e whose link is not itself failed. Returned as (satellite in e[0],
// satellite in e[1]). Candidate pairs out of ISL range are pruned by the
// slot's spatial grid before any lifetime prediction runs.
func (c *Controller) bestReplacement(sg *orbit.SlotGeom, s *Snapshot, e [2]int, busy []bool, failSet map[Link]bool) (int, int, bool) {
	bestTau := 0.0
	var bestA, bestB int
	found := false
	for _, a := range s.CellSats[e[0]] {
		if busy[a] {
			continue
		}
		for _, b := range s.CellSats[e[1]] {
			if busy[b] || a == b {
				continue
			}
			if failSet[MakeLink(a, b)] {
				continue
			}
			if tau := sg.Lifetime(a, b); tau > bestTau {
				bestTau, bestA, bestB, found = tau, a, b, true
			}
		}
	}
	return bestA, bestB, found
}

// ringLinks closes §4.3's intra-cell ring over each cell's gateway
// satellites — the one place gateway sets become ring links, for a compiled
// slot and for a repaired one alike, so that a repair moves ring links only
// in cells whose gateway set changed or that held a failed link. Members
// are ordered by sub-satellite longitude, then latitude, for short ring
// hops. A pair in failed is left open (the ring degrades to a chain): the
// two ends of a failed inter-cell link can come back as neighbours on one
// cell's ring, and a repair must not instruct the link it was told is gone.
// The links are gathered in ls and returned at their exact length.
func (c *Controller) ringLinks(sg *orbit.SlotGeom, gateways map[[2]int][]int, failed map[Link]bool, ls *linkScratch) []Link {
	links, members := ls.links[:0], ls.members
	closeRing := func(a, b int) {
		if l := MakeLink(a, b); !failed[l] {
			links = append(links, l)
		}
	}
	for ci, u := range c.topo.cells {
		members = members[:0]
		for _, v := range c.topo.neighbors[ci] {
			members = append(members, gateways[[2]int{u, v}]...)
		}
		slices.SortFunc(members, func(a, b int) int {
			pa, pb := sg.SubPoint(a), sg.SubPoint(b)
			return cmp.Or(cmp.Compare(pa.Lon, pb.Lon), cmp.Compare(pa.Lat, pb.Lat), cmp.Compare(a, b))
		})
		// A repaired satellite can serve two edges of the cell; it joins
		// the ring once.
		members = slices.Compact(members)
		if len(members) < 2 {
			continue
		}
		if len(members) == 2 {
			closeRing(members[0], members[1])
			continue
		}
		for i := range members {
			closeRing(members[i], members[(i+1)%len(members)])
		}
	}
	slices.SortFunc(links, cmpLink)
	ls.links, ls.members = links, members
	return exactLinks(links)
}

// exactLinks copies a gathered link list at its exact length, nil when it
// is empty.
func exactLinks(links []Link) []Link {
	if len(links) == 0 {
		return nil
	}
	return append(make([]Link, 0, len(links)), links...)
}

func appendUnique(list []int, v int) []int {
	if v < 0 {
		return list
	}
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}

// String summarizes a snapshot.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{t=%.0fs cells=%d inter=%d ring=%d deficits=%d}",
		s.Time, len(s.CellSats), len(s.InterLinks), len(s.RingLinks), len(s.Deficits))
}
