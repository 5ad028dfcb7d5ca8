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
	"errors"
	"fmt"
	"math"
	"sort"
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

	// Delta-compile telemetry: how much of each incremental compile was
	// reused from the previous slot (cells/edges whose matching inputs
	// were bit-identical) versus rematched, and how many cells' visible
	// sets actually changed between the two slots.
	obsDeltaCompiles     = obs.Default().Counter("tinyleo_mpc_delta_compile_total")
	obsDeltaChangedCells = obs.Default().Gauge("tinyleo_mpc_delta_changed_cells")
	obsDeltaCellsReused  = obs.Default().Counter("tinyleo_mpc_delta_cells_total", "outcome", "reused")
	obsDeltaCellsMatched = obs.Default().Counter("tinyleo_mpc_delta_cells_total", "outcome", "rematched")
	obsDeltaEdgesReused  = obs.Default().Counter("tinyleo_mpc_delta_edges_total", "outcome", "reused")
	obsDeltaEdgesMatched = obs.Default().Counter("tinyleo_mpc_delta_edges_total", "outcome", "rematched")

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
	// LifetimeHorizon/LifetimeStep bound the τ prediction (s). Defaults:
	// 1800 s horizon, 30 s step.
	LifetimeHorizon float64
	LifetimeStep    float64
	// MaxISLsPerSat is the satellite's laser terminal count (default 3:
	// one inter-cell gateway link + two intra-cell ring links).
	MaxISLsPerSat int
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
	if c.LifetimeHorizon <= 0 {
		c.LifetimeHorizon = 1800
	}
	if c.LifetimeStep <= 0 {
		c.LifetimeStep = 30
	}
	if c.MaxISLsPerSat <= 0 {
		c.MaxISLsPerSat = 3
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
	// geo memoizes orbit propagation, pairwise ISL lifetimes, and
	// per-slot geometry across slots (and across Compile/Repair).
	geo *orbit.PropCache
	// footprint[s] is satellite s's coverage angular radius, constant
	// over time for circular orbits.
	footprint []float64
	// deltaMu serializes DeltaCompile calls: the delta state carries
	// per-cell and per-edge matching records from the previous delta
	// slot, so incremental compiles are inherently sequential.
	deltaMu sync.Mutex
	//tinyleo:guardedby deltaMu
	delta *deltaState
}

// deltaState is the warm-start memory a DeltaCompile chain carries from
// slot to slot: the last slot's coverage (for the changed-cell diff) and
// the matching records reuse is gated on. Reuse never trusts temporal
// coherence alone — a record is only replayed when every input the
// matching consumed (available satellites and the full τ weight matrix)
// is bit-identical to the recorded one, which makes the delta path's
// output byte-identical to a full compile by construction.
type deltaState struct {
	prev  *Snapshot
	cover [][]int
	cells map[int]*cellMatch
	edges map[[2]int]*edgeMatch
	// changed is the most recent slot-over-slot changed-cell count.
	changed int
}

// cellMatch records one cell's stage-1 many-to-one matching: the inputs
// it was computed from and the per-neighbor gateway assignment it
// produced.
type cellMatch struct {
	sats []int
	w    [][]float64
	gws  [][]int
}

// edgeMatch records one intent edge's stage-2 one-to-one matching: the
// two gateway sets, their pairwise τ matrix, and the concrete ISLs.
type edgeMatch struct {
	gu, gv []int
	w      [][]float64
	links  []Link
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// weightsEqual compares τ matrices by float64 bit pattern: reuse demands
// exact input identity, not numeric closeness.
func weightsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// New validates the config and creates a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		geo:       orbit.NewPropCache(cfg.Sats, cfg.ISL, cfg.LifetimeHorizon, cfg.LifetimeStep),
		footprint: make([]float64, len(cfg.Sats)),
	}
	for i, e := range cfg.Sats {
		c.footprint[i] = cfg.Coverage.FootprintRadius(e.Altitude())
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
// time t.
func (c *Controller) Compile(t float64) *Snapshot {
	return c.compile(t, nil)
}

// DeltaCompile produces the snapshot Compile(t) would — byte for byte —
// but warm-starts from the previous slot: pair-lifetime predictions skip
// visibility samples a prior evaluation already observed (the dominant
// compile cost), and a cell's or edge's stable matching is replayed from
// the previous slot's record whenever every matching input (available
// satellites, gateway sets, and the full τ weight matrix) is
// bit-identical. prev anchors the changed-cell diff; passing nil falls
// back to a full compile. Calls are serialized per controller — the
// warm-start state is a slot-to-slot chain — while Compile and Repair
// may still run concurrently.
func (c *Controller) DeltaCompile(prev *Snapshot, t float64) *Snapshot {
	if prev == nil {
		return c.Compile(t)
	}
	c.geo.EnableWarmLifetimes()
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	if c.delta == nil {
		c.delta = &deltaState{cells: map[int]*cellMatch{}, edges: map[[2]int]*edgeMatch{}}
	}
	c.delta.prev = prev
	snap := c.compile(t, c.delta)
	obsDeltaCompiles.Inc()
	obsDeltaChangedCells.Set(float64(c.delta.changed))
	return snap
}

// compile is the shared three-stage pipeline behind Compile and
// DeltaCompile. A nil ds runs the full path; a non-nil ds additionally
// consults and refreshes the delta chain's matching records. Both paths
// execute the identical stage structure, so their snapshots are
// byte-identical by construction.
func (c *Controller) compile(t float64, ds *deltaState) *Snapshot {
	kind := "compile"
	if ds != nil {
		kind = "delta"
	}
	span := obs.StartSpan("mpc.compile", "t", strconv.FormatFloat(t, 'f', 0, 64), "kind", kind)
	//lint:tinyleo-ignore wall-clock compile latency feeds telemetry only, never the snapshot
	start := time.Now()
	defer func() { span.End() }()
	cfg := &c.cfg
	snap := &Snapshot{
		Time:     t,
		CellSats: map[int][]int{},
		Gateways: map[[2]int][]int{},
		Deficits: map[[2]int]int{},
	}
	// Stage 0: predict satellite→cell coverage (§4.2 "it first predicts
	// which satellites cover it"). A satellite belongs to every declared
	// cell whose center its footprint covers; the gateway matching below
	// enforces the terminal budget by assigning each satellite to at most
	// one cell's gateway duty. Slot geometry (positions, sub-satellite
	// points, the ISL-range pruning grid) comes from the propagation
	// cache and is shared with every other slot of a horizon compile and
	// with Repair at the same slot time.
	sg := c.geo.Slot(t)
	cells := cfg.Topo.Cells()
	centers := make([]geom.LatLon, len(cells))
	for ci, u := range cells {
		centers[ci] = cfg.Topo.Grid.Center(u)
	}
	cover := sg.Coverage(centers, c.footprint)
	for ci, u := range cells {
		if len(cover[ci]) > 0 {
			snap.CellSats[u] = cover[ci]
		}
	}
	if ds != nil {
		// The changed-cell set is a cheap diff on cached geometry: cells
		// outside it kept their visible-satellite set and are the reuse
		// candidates the matching records below capitalize on.
		prevCover := make([][]int, len(cells))
		for ci, u := range cells {
			prevCover[ci] = ds.prev.CellSats[u]
		}
		ds.changed = len(orbit.ChangedCells(prevCover, cover))
		ds.cover = cover
	}

	// Stage 1: per-cell many-to-one gateway matching. Satellites already
	// holding a gateway assignment from an earlier cell are excluded, so
	// each satellite spends at most one terminal on gateway duty (plus two
	// on its home cell's ring). Cells with the largest gateway demand match
	// first so shared satellites go where they are scarcest.
	order := append([]int(nil), cells...)
	demandOf := func(u int) int {
		d := 0
		for _, v := range cfg.Topo.Neighbors(u) {
			d += cfg.Topo.EdgeDemand(u, v)
		}
		return d
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := demandOf(order[a]), demandOf(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	taken := make(map[int]bool)
	for _, u := range order {
		var sats []int
		for _, s := range snap.CellSats[u] {
			if !taken[s] {
				sats = append(sats, s)
			}
		}
		neighbors := cfg.Topo.Neighbors(u)
		if len(sats) == 0 || len(neighbors) == 0 {
			for _, v := range neighbors {
				snap.Deficits[[2]int{u, v}] += cfg.Topo.EdgeDemand(u, v)
			}
			continue
		}
		// Preference weights: τ_{s,v} = mean predicted ISL lifetime from s
		// to the satellites currently homed in v (Equation in §4.2).
		w := make([][]float64, len(sats))
		for i, s := range sats {
			w[i] = make([]float64, len(neighbors))
			for j, v := range neighbors {
				w[i][j] = c.meanLifetime(sg, s, snap.CellSats[v])
			}
		}
		// Warm start: the matching is a pure function of (sats, w, caps)
		// — caps is the static intent demand — so a record with
		// bit-identical inputs replays its assignment without running
		// Gale–Shapley again.
		var assignedGws [][]int
		if ds != nil {
			if rec := ds.cells[u]; rec != nil && intsEqual(rec.sats, sats) && weightsEqual(rec.w, w) {
				assignedGws = rec.gws
				obsDeltaCellsReused.Inc()
			}
		}
		if assignedGws == nil {
			satPrefs := stablematch.PrefsFromWeights(w, 0)
			// Neighbor cells rank satellites by the same lifetime.
			rw := make([][]float64, len(neighbors))
			caps := make([]int, len(neighbors))
			for j, v := range neighbors {
				rw[j] = make([]float64, len(sats))
				for i := range sats {
					rw[j][i] = w[i][j]
				}
				caps[j] = cfg.Topo.EdgeDemand(u, v)
			}
			rPrefs := stablematch.PrefsFromWeights(rw, 0)
			rRank := stablematch.RanksFromPrefs(rPrefs, len(sats))
			_, assigned := stablematch.ManyToOne(satPrefs, rRank, caps)
			assignedGws = make([][]int, len(neighbors))
			for j, held := range assigned {
				gws := make([]int, 0, len(held))
				for _, i := range held {
					gws = append(gws, sats[i])
				}
				assignedGws[j] = gws
			}
			if ds != nil {
				ds.cells[u] = &cellMatch{sats: append([]int(nil), sats...), w: w, gws: assignedGws}
				obsDeltaCellsMatched.Inc()
			}
		}
		for j, v := range neighbors {
			gws := make([]int, 0, len(assignedGws[j]))
			gws = append(gws, assignedGws[j]...)
			for _, g := range gws {
				taken[g] = true
			}
			snap.Gateways[[2]int{u, v}] = gws
			if d := cfg.Topo.EdgeDemand(u, v) - len(gws); d > 0 {
				snap.Deficits[[2]int{u, v}] += d
			}
		}
	}

	// Stage 2: one-to-one matching of gateway sets across each edge.
	seen := map[[2]int]bool{}
	for key := range snap.Gateways {
		u, v := key[0], key[1]
		ek := [2]int{min(u, v), max(u, v)}
		if seen[ek] {
			continue
		}
		seen[ek] = true
		gu := snap.Gateways[[2]int{ek[0], ek[1]}]
		gv := snap.Gateways[[2]int{ek[1], ek[0]}]
		if len(gu) == 0 || len(gv) == 0 {
			continue
		}
		w := make([][]float64, len(gu))
		for i, s := range gu {
			w[i] = make([]float64, len(gv))
			for j, s2 := range gv {
				w[i][j] = c.pairLifetime(sg, s, s2)
			}
		}
		if ds != nil {
			if rec := ds.edges[ek]; rec != nil && intsEqual(rec.gu, gu) && intsEqual(rec.gv, gv) && weightsEqual(rec.w, w) {
				snap.InterLinks = append(snap.InterLinks, rec.links...)
				obsDeltaEdgesReused.Inc()
				continue
			}
		}
		pPrefs := stablematch.PrefsFromWeights(w, 0)
		rw := make([][]float64, len(gv))
		for j := range gv {
			rw[j] = make([]float64, len(gu))
			for i := range gu {
				rw[j][i] = w[i][j]
			}
		}
		rRank := stablematch.RanksFromPrefs(stablematch.PrefsFromWeights(rw, 0), len(gu))
		match := stablematch.OneToOne(pPrefs, rRank)
		var links []Link
		for i, j := range match {
			if j >= 0 {
				links = append(links, MakeLink(gu[i], gv[j]))
			}
		}
		snap.InterLinks = append(snap.InterLinks, links...)
		if ds != nil {
			ds.edges[ek] = &edgeMatch{
				gu: append([]int(nil), gu...), gv: append([]int(nil), gv...),
				w: w, links: links,
			}
			obsDeltaEdgesMatched.Inc()
		}
	}
	sort.Slice(snap.InterLinks, func(a, b int) bool { return lessLink(snap.InterLinks[a], snap.InterLinks[b]) })

	// Stage 3: intra-cell ring over each cell's gateway satellites.
	snap.RingLinks = c.ringLinks(sg, snap.Gateways, nil)
	obsCompiles.Inc()
	//lint:tinyleo-ignore wall-clock compile latency feeds telemetry only, never the snapshot
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
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
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

func lessLink(a, b Link) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// lifetime predicts τ_{s,s'}: how long an ISL between satellites s and s'
// established at t would last. Served from the propagation cache.
func (c *Controller) lifetime(s, s2 int, t float64) float64 {
	return c.geo.Lifetime(s, s2, t)
}

// pairLifetime is lifetime with the slot's spatial-grid prune in front:
// a pair the grid rejects is out of ISL range at the slot time, so its τ
// is exactly 0 and no propagation is spent on it.
func (c *Controller) pairLifetime(sg *orbit.SlotGeom, s, s2 int) float64 {
	if !sg.InRange(s, s2) {
		return 0
	}
	return c.geo.Lifetime(s, s2, sg.Time)
}

// meanLifetime is τ_{s,v} = (1/n_v)·Σ_{s'∈v} τ_{s,s'}, with out-of-range
// pairs pruned by the slot's spatial grid (they contribute exactly 0).
func (c *Controller) meanLifetime(sg *orbit.SlotGeom, s int, vSats []int) float64 {
	if len(vSats) == 0 {
		return 0
	}
	sum := 0.0
	for _, s2 := range vSats {
		sum += c.pairLifetime(sg, s, s2)
	}
	return sum / float64(len(vSats))
}

// DiffLinks returns the ISLs added and removed between snapshots, each in
// canonical link order: the reconfiguration the controller must enforce.
// A nil prev is the bootstrap diff, where every link of cur is added. Both
// sides go through LinkSet, so a pair a repaired snapshot lists as both an
// inter-cell and a ring link is reported once.
func DiffLinks(prev, cur *Snapshot) (added, removed []Link) {
	var ps map[Link]bool
	if prev != nil {
		ps = prev.LinkSet()
	}
	cs := cur.LinkSet()
	for l := range cs {
		if !ps[l] {
			added = append(added, l)
		}
	}
	for l := range ps {
		if !cs[l] {
			removed = append(removed, l)
		}
	}
	sort.Slice(added, func(a, b int) bool { return lessLink(added[a], added[b]) })
	sort.Slice(removed, func(a, b int) bool { return lessLink(removed[a], removed[b]) })
	obsLinksAdded.Add(int64(len(added)))
	obsLinksRemoved.Add(int64(len(removed)))
	return
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
	sort.Slice(out, func(i, j int) bool { return out[i].Sat < out[j].Sat })
	return out
}

// EnforcementRatio reports what fraction of the intent's total edge ISL
// demand the snapshot satisfies (Figure 16's enforcement metric).
func (c *Controller) EnforcementRatio(s *Snapshot) float64 {
	totalDemand, satisfied := 0, 0
	seen := map[[2]int]bool{}
	for e, n := range c.cfg.Topo.Edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		totalDemand += n
		// Count concrete links between the gateway sets of e.
		gu := map[int]bool{}
		for _, s2 := range s.Gateways[[2]int{e[0], e[1]}] {
			gu[s2] = true
		}
		gv := map[int]bool{}
		for _, s2 := range s.Gateways[[2]int{e[1], e[0]}] {
			gv[s2] = true
		}
		links := 0
		for _, l := range s.InterLinks {
			if (gu[l[0]] && gv[l[1]]) || (gu[l[1]] && gv[l[0]]) {
				links++
			}
		}
		if links > n {
			links = n
		}
		satisfied += links
	}
	if totalDemand == 0 {
		obsEnforcement.Set(1)
		return 1
	}
	ratio := float64(satisfied) / float64(totalDemand)
	obsEnforcement.Set(ratio)
	return ratio
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
	//lint:tinyleo-ignore RepairStats.ComputeTime reports measured wall latency; topology outputs do not depend on it
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
		CellSats: map[int][]int{},
		Gateways: map[[2]int][]int{},
		Deficits: map[[2]int]int{},
	}
	for u, sats := range s.CellSats {
		for _, sat := range sats {
			if !dead[sat] {
				out.CellSats[u] = append(out.CellSats[u], sat)
			}
		}
	}
	for k, d := range s.Deficits {
		out.Deficits[k] = d
	}
	// Remaining healthy inter-links and their gateway assignments.
	busy := map[int]bool{} // satellites already serving a gateway link
	for key, gws := range s.Gateways {
		var kept []int
		for _, g := range gws {
			if !dead[g] {
				kept = append(kept, g)
			}
		}
		out.Gateways[key] = kept
	}
	for _, l := range s.InterLinks {
		if failSet[l] || dead[l[0]] || dead[l[1]] {
			// Edge loses one ISL; gateway slots reopen.
			c.dropGateway(out, l)
			continue
		}
		out.InterLinks = append(out.InterLinks, l)
		busy[l[0]], busy[l[1]] = true, true
	}
	// Re-match residual demand per edge, counting satisfied ISLs the same
	// way EnforcementRatio does: concrete links between the two gateway
	// sets of the edge.
	countEdgeLinks := func(e [2]int) int {
		gu := map[int]bool{}
		for _, g := range out.Gateways[[2]int{e[0], e[1]}] {
			gu[g] = true
		}
		gv := map[int]bool{}
		for _, g := range out.Gateways[[2]int{e[1], e[0]}] {
			gv[g] = true
		}
		n := 0
		for _, l := range out.InterLinks {
			if (gu[l[0]] && gv[l[1]]) || (gu[l[1]] && gv[l[0]]) {
				n++
			}
		}
		return n
	}
	// Reuse the compiled slot's cached geometry: Repair runs at the same
	// slot time as the Compile that produced s, so the spatial grid and
	// every pair lifetime it consults are already memoized.
	sg := c.geo.Slot(s.Time)
	// Iterate intent edges in a fixed order: replacement satellites are a
	// shared resource (the busy map), so map-order iteration would let the
	// runtime's randomized order decide which edge wins a scarce satellite
	// and produce different repaired topologies for identical inputs.
	edges := make([][2]int, 0, len(c.cfg.Topo.Edges))
	for e := range c.cfg.Topo.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		n := c.cfg.Topo.Edges[e]
		have := countEdgeLinks(e)
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
	sort.Slice(out.InterLinks, func(a, b int) bool { return lessLink(out.InterLinks[a], out.InterLinks[b]) })
	// Rebuild rings from the (possibly changed) gateway sets.
	out.RingLinks = c.ringLinks(sg, out.Gateways, failSet)
	// Ring links to establish are also instructions.
	ringAdded, _ := DiffLinks(&Snapshot{InterLinks: s.RingLinks}, &Snapshot{InterLinks: out.RingLinks})
	stats.Messages += 2 * len(ringAdded)
	//lint:tinyleo-ignore RepairStats.ComputeTime reports measured wall latency; topology outputs do not depend on it
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

// dropGateway releases the gateway assignments of a failed link's
// endpoints (each satellite holds at most one gateway duty, so removing
// the endpoints from every list is exact).
func (c *Controller) dropGateway(s *Snapshot, l Link) {
	for key, gws := range s.Gateways {
		var kept []int
		for _, g := range gws {
			if g != l[0] && g != l[1] {
				kept = append(kept, g)
			}
		}
		s.Gateways[key] = kept
	}
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
func (c *Controller) bestReplacement(sg *orbit.SlotGeom, s *Snapshot, e [2]int, busy map[int]bool, failSet map[Link]bool) (int, int, bool) {
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
			if tau := c.pairLifetime(sg, a, b); tau > bestTau {
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
func (c *Controller) ringLinks(sg *orbit.SlotGeom, gateways map[[2]int][]int, failed map[Link]bool) []Link {
	var links []Link
	closeRing := func(a, b int) {
		if l := MakeLink(a, b); !failed[l] {
			links = append(links, l)
		}
	}
	for _, u := range c.cfg.Topo.Cells() {
		ringSet := map[int]bool{}
		for _, v := range c.cfg.Topo.Neighbors(u) {
			for _, s := range gateways[[2]int{u, v}] {
				ringSet[s] = true
			}
		}
		if len(ringSet) < 2 {
			continue
		}
		members := make([]int, 0, len(ringSet))
		for s := range ringSet {
			members = append(members, s)
		}
		sort.Slice(members, func(a, b int) bool {
			pa := sg.SubPoint(members[a])
			pb := sg.SubPoint(members[b])
			if pa.Lon != pb.Lon {
				return pa.Lon < pb.Lon
			}
			if pa.Lat != pb.Lat {
				return pa.Lat < pb.Lat
			}
			return members[a] < members[b]
		})
		if len(members) == 2 {
			closeRing(members[0], members[1])
			continue
		}
		for i := range members {
			closeRing(members[i], members[(i+1)%len(members)])
		}
	}
	sort.Slice(links, func(a, b int) bool { return lessLink(links[a], links[b]) })
	return links
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
