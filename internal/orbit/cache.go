package orbit

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// This file implements the propagation cache behind TinyLEO's slot
// compile (paper §4.2: the MPC "precomputes each satellite's serving
// cells" offline and only assembles topologies online). The cache itself
// keeps what every compile on one controller shares: the satellites, the
// ISL and lifetime-window parameters, the sample offsets of that window,
// and the per-slot geometry. What one compile samples — ECI positions at
// the window's sample times, pair lifetimes τ, and each pair's last
// visibility run — is indexed, not hashed, and lives in the compile's own
// LifeTable (lifetable.go).

// PropCache holds the propagation inputs of a fixed satellite set and
// memoizes per-slot geometry (sub-satellite points plus a spatial pruning
// grid) keyed by slot time.
//
// The ISL parameters and the lifetime prediction window (horizon, step)
// are fixed at construction, matching their lifecycle in mpc.Config; a
// controller that changes them needs a new cache.
//
// All methods are safe for concurrent use; every value is bit-identical
// to calling the underlying Elements/ISLParams methods directly, so a
// cached compile path produces byte-identical topologies.
type PropCache struct {
	sats    []Elements
	isl     ISLParams
	horizon float64 // lifetime prediction horizon (s)
	step    float64 // lifetime prediction step (s)

	// offs[m] is the m-th sample offset of ISLLifetime's stepping loop,
	// accumulated as the loop accumulates it: a lifetime established at t0
	// samples exactly the times t0+offs[m], bit for bit.
	offs []float64

	slotMu sync.Mutex
	//tinyleo:guardedby slotMu
	slots map[uint64]*slotEntry

	posHits     atomic.Uint64
	posMisses   atomic.Uint64
	lifeHits    atomic.Uint64
	lifeMisses  atomic.Uint64
	pruned      atomic.Uint64
	warmSamples atomic.Uint64
	warmSkips   atomic.Uint64
}

type slotEntry struct {
	once sync.Once
	g    *SlotGeom
}

// NewPropCache creates a propagation cache over sats with the given ISL
// visibility constraints and lifetime prediction window (horizon and step
// in seconds, as in mpc.Config).
func NewPropCache(sats []Elements, isl ISLParams, lifetimeHorizon, lifetimeStep float64) *PropCache {
	pc := &PropCache{
		sats:    sats,
		isl:     isl,
		horizon: lifetimeHorizon,
		step:    lifetimeStep,
		slots:   map[uint64]*slotEntry{},
	}
	// Mirror ISLLifetime's accumulation (t += step) exactly so offs[m]
	// reproduces the m-th sample offset bit for bit.
	pc.offs = append(pc.offs, 0)
	for t := pc.step; t <= pc.horizon; t += pc.step {
		pc.offs = append(pc.offs, t)
	}
	return pc
}

// NumSats returns the size of the cached satellite set.
func (pc *PropCache) NumSats() int { return len(pc.sats) }

// Lifetime returns the predicted ISL lifetime τ between satellites i and
// j established at time t0: ISLLifetime(sats[i], sats[j], t0, horizon,
// step, isl), computed on every call (a slot compile keeps its τ in a
// LifeTable; Repair asks for too few to need one).
func (pc *PropCache) Lifetime(i, j int, t0 float64) float64 {
	pc.lifeMisses.Add(1)
	if i > j {
		i, j = j, i
	}
	return ISLLifetime(pc.sats[i], pc.sats[j], t0, pc.horizon, pc.step, pc.isl)
}

// Slot returns the memoized per-slot geometry at time t, building it on
// first use. Concurrent callers for the same t share one build.
func (pc *PropCache) Slot(t float64) *SlotGeom {
	key := math.Float64bits(t)
	pc.slotMu.Lock()
	e, ok := pc.slots[key]
	if !ok {
		e = &slotEntry{}
		pc.slots[key] = e
	}
	pc.slotMu.Unlock()
	e.once.Do(func() { e.g = pc.buildSlot(t) })
	return e.g
}

// DropSlotsBefore evicts slot geometries older than t (long-running
// controllers compile an unbounded slot sequence, and this map is the one
// thing the cache keeps per slot). A holder of an evicted geometry keeps
// using it, and Slot rebuilds one on demand.
func (pc *PropCache) DropSlotsBefore(t float64) {
	pc.slotMu.Lock()
	defer pc.slotMu.Unlock()
	for key := range pc.slots {
		if math.Float64frombits(key) < t {
			delete(pc.slots, key)
		}
	}
}

// NumSlots returns how many slot geometries the cache retains.
func (pc *PropCache) NumSlots() int {
	pc.slotMu.Lock()
	defer pc.slotMu.Unlock()
	return len(pc.slots)
}

func (pc *PropCache) buildSlot(t float64) *SlotGeom {
	g := &SlotGeom{
		cache:    pc,
		Time:     t,
		pos:      make([]geom.Vec3, len(pc.sats)),
		sub:      make([]geom.LatLon, len(pc.sats)),
		maxRange: pc.isl.MaxRange,
	}
	rot := -GMST(t)
	g.subU = make([]geom.Vec3, len(pc.sats))
	pc.posMisses.Add(uint64(len(pc.sats)))
	for i := range pc.sats {
		p := pc.sats[i].PositionECI(t)
		g.pos[i] = p
		// Identical to Elements.SubSatellitePoint: ECEF = ECI·RotZ(−GMST).
		g.sub[i] = geom.FromUnit(p.RotZ(rot))
		// Memoize the sub-point's unit vector (ToUnit is pure, so this is
		// the exact vector CentralAngle would derive) for Coverage.
		g.subU[i] = g.sub[i].ToUnit()
	}
	if g.maxRange > 0 {
		g.bucket = make([][3]int32, len(pc.sats))
		inv := 1 / g.maxRange
		for i, p := range g.pos {
			g.bucket[i] = [3]int32{
				int32(math.Floor(p.X * inv)),
				int32(math.Floor(p.Y * inv)),
				int32(math.Floor(p.Z * inv)),
			}
		}
	}
	return g
}

// Stats returns cumulative cache counters (monotonic since construction).
func (pc *PropCache) Stats() CacheStats {
	return CacheStats{
		PosHits:     pc.posHits.Load(),
		PosMisses:   pc.posMisses.Load(),
		LifeHits:    pc.lifeHits.Load(),
		LifeMisses:  pc.lifeMisses.Load(),
		PrunedPairs: pc.pruned.Load(),
		WarmSamples: pc.warmSamples.Load(),
		WarmSkips:   pc.warmSkips.Load(),
	}
}

// CacheStats reports how much propagation the slot tables saved: hits and
// misses for positions and pair lifetimes (a hit is a value served from a
// compile's LifeTable, a miss one that was computed), candidate pairs the
// spatial grid pruned without any propagation, and how many visibility
// samples the tables' lifetime walks resolved and how many of those came
// from the pair's previous run without calling Visible.
type CacheStats struct {
	PosHits, PosMisses     uint64
	LifeHits, LifeMisses   uint64
	PrunedPairs            uint64
	WarmSamples, WarmSkips uint64
}

// WarmHitRatio returns the fraction of visibility samples resolved from
// recorded runs instead of fresh geometry, in [0, 1]; zero samples yield
// 0. This is the honest "warm hit" figure for delta compiles: it counts
// only work actually skipped.
func (s CacheStats) WarmHitRatio() float64 {
	if s.WarmSamples == 0 {
		return 0
	}
	return float64(s.WarmSkips) / float64(s.WarmSamples)
}

// HitRatio returns the fraction of all memo lookups served from cache,
// in [0, 1]; zero lookups yield 0.
func (s CacheStats) HitRatio() float64 {
	hits := s.PosHits + s.LifeHits
	total := hits + s.PosMisses + s.LifeMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// SlotGeom is the geometry of one control slot: every satellite's ECI
// position and sub-satellite point at the slot time, plus a uniform
// spatial grid (cell edge = ISL max range) that prunes out-of-range ISL
// candidate pairs before any lifetime prediction runs. Instances are
// built by PropCache.Slot and are immutable afterwards, so they are safe
// to share across goroutines.
type SlotGeom struct {
	cache *PropCache
	// Time is the slot time (seconds since epoch) the geometry was
	// propagated at.
	Time     float64
	pos      []geom.Vec3
	sub      []geom.LatLon
	subU     []geom.Vec3 // sub[i].ToUnit(), memoized for Coverage
	bucket   [][3]int32
	maxRange float64
}

// Position returns satellite i's ECI position at the slot time.
func (g *SlotGeom) Position(i int) geom.Vec3 { return g.pos[i] }

// SubPoint returns satellite i's sub-satellite point at the slot time,
// bit-identical to Elements.SubSatellitePoint.
func (g *SlotGeom) SubPoint(i int) geom.LatLon { return g.sub[i] }

// Coverage computes the slot's satellite→cell coverage: cover[ci] lists,
// in ascending satellite order, every satellite whose footprint (angular
// radius radius[s]) covers centers[ci]. This is the MPC's stage-0 query;
// exposing it here lets the delta compiler diff consecutive slots'
// coverage (ChangedCells) without re-deriving sub-satellite points.
func (g *SlotGeom) Coverage(centers []geom.LatLon, radius []float64) [][]int {
	cover := make([][]int, len(centers))
	// CentralAngle(sub, c) is AngleTo over the two ToUnit vectors; both
	// conversions are pure, so hoisting them out of the pair loop keeps
	// every comparison bit-identical while doing the trig once per point
	// instead of once per (satellite, cell) pair.
	cu := make([]geom.Vec3, len(centers))
	for ci, c := range centers {
		cu[ci] = c.ToUnit()
	}
	for si := range g.sub {
		su := g.subU[si]
		lam := radius[si]
		for ci := range centers {
			if su.AngleTo(cu[ci]) <= lam {
				cover[ci] = append(cover[ci], si)
			}
		}
	}
	return cover
}

// ChangedCells returns the indices whose coverage list differs between
// two Coverage results (aligned by index). A nil prev marks every
// non-empty cur cell changed.
func ChangedCells(prev, cur [][]int) []int {
	n := len(cur)
	if len(prev) > n {
		n = len(prev)
	}
	var changed []int
	for ci := 0; ci < n; ci++ {
		var p, c []int
		if ci < len(prev) {
			p = prev[ci]
		}
		if ci < len(cur) {
			c = cur[ci]
		}
		if !intsEqual(p, c) {
			changed = append(changed, ci)
		}
	}
	return changed
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

// InRange reports whether satellites i and j are within ISL range at the
// slot time. A false result is exact — the pair's distance exceeds
// MaxRange, so its ISL lifetime at this time is exactly 0 and the
// matching stage can skip it without changing any output. With an
// unlimited-range ISL configuration every pair is in range.
//
// The check is grid-first: any pair within MaxRange occupies the same or
// adjacent grid cells on every axis, so differing by two or more cells
// rejects without computing a distance.
func (g *SlotGeom) InRange(i, j int) bool {
	if !g.inRange(i, j) {
		g.cache.pruned.Add(1)
		return false
	}
	return true
}

// inRange is InRange without the pruned-pair count, which a LifeTable
// keeps in a local and flushes once per compile.
//
//tinyleo:hotpath
func (g *SlotGeom) inRange(i, j int) bool {
	if g.maxRange <= 0 {
		return true
	}
	bi, bj := g.bucket[i], g.bucket[j]
	if bi[0]-bj[0] > 1 || bj[0]-bi[0] > 1 ||
		bi[1]-bj[1] > 1 || bj[1]-bi[1] > 1 ||
		bi[2]-bj[2] > 1 || bj[2]-bi[2] > 1 {
		return false
	}
	return g.pos[i].DistSq(g.pos[j]) <= g.maxRange*g.maxRange
}

// Lifetime returns the predicted lifetime τ of an ISL between satellites
// i and j established at the slot time: exactly 0 for a pair InRange
// rejects, on which no propagation is spent, and PropCache.Lifetime
// otherwise.
func (g *SlotGeom) Lifetime(i, j int) float64 {
	if !g.InRange(i, j) {
		return 0
	}
	return g.cache.Lifetime(i, j, g.Time)
}
