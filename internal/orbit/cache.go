package orbit

import (
	"fmt"
	"math"
	"slices"
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
	sats []Elements
	// orb[i] is satellite i's propagation constants, taken once here so a
	// position costs one Sincos (position).
	orb     []satConst
	isl     ISLParams
	horizon float64 // lifetime prediction horizon (s)
	step    float64 // lifetime prediction step (s)

	// offs[m] is the m-th sample offset of ISLLifetime's stepping loop,
	// accumulated as the loop accumulates it: a lifetime established at t0
	// samples exactly the times t0+offs[m], bit for bit.
	offs []float64
	// vals is every value τ can take, by the code a LifeTable stores: the
	// offsets, then the horizon. offs is its prefix.
	vals []float64

	slotMu sync.Mutex
	//tinyleo:guardedby slotMu
	slots map[uint64]*slotEntry
	// free holds up to maxFree evicted geometries that only ChainSlot ever
	// returned, for ChainSlot to refill instead of allocating.
	//tinyleo:guardedby slotMu
	free []*SlotGeom

	posHits     atomic.Uint64
	posMisses   atomic.Uint64
	lifeHits    atomic.Uint64
	lifeMisses  atomic.Uint64
	pruned      atomic.Uint64
	warmSamples atomic.Uint64
	warmSkips   atomic.Uint64
	coverExact  atomic.Uint64
}

// satConst is what propagating one satellite takes that time does not
// change: its semi-major axis and phase, its mean motion, and the sine and
// cosine of its inclination and RAAN.
type satConst struct {
	a, phase, n            float64
	sinI, cosI, sinO, cosO float64
}

type slotEntry struct {
	once sync.Once
	g    *SlotGeom
	// shared is set, under PropCache.slotMu, once Slot has handed g out:
	// then some holder other than the chain may keep it, and it is never
	// refilled.
	shared bool
}

// maxFree bounds the free list: a chain evicts one geometry per slot and
// refills one per slot, so two cover a chain whose prev lags a slot.
const maxFree = 2

// NewPropCache creates a propagation cache over sats with the given ISL
// visibility constraints and lifetime prediction window (horizon and step
// in seconds, as in mpc.Config). It panics on a window WindowSamples
// rejects; mpc.New returns that error instead.
func NewPropCache(sats []Elements, isl ISLParams, lifetimeHorizon, lifetimeStep float64) *PropCache {
	pc := &PropCache{
		sats:    sats,
		isl:     isl,
		horizon: lifetimeHorizon,
		step:    lifetimeStep,
		slots:   map[uint64]*slotEntry{},
		orb:     make([]satConst, len(sats)),
	}
	for i, e := range sats {
		k := &pc.orb[i]
		k.a, k.phase, k.n = e.SemiMajor, e.Phase, e.MeanMotion()
		k.sinI, k.cosI = math.Sincos(e.Inclination)
		k.sinO, k.cosO = math.Sincos(e.RAAN)
	}
	samples, err := WindowSamples(lifetimeHorizon, lifetimeStep)
	if err != nil {
		panic(err)
	}
	// Mirror ISLLifetime's accumulation (t += step) exactly so offs[m]
	// reproduces the m-th sample offset bit for bit.
	pc.vals = make([]float64, 1, samples+1)
	for t := pc.step; t <= pc.horizon; t += pc.step {
		pc.vals = append(pc.vals, t)
	}
	pc.offs = pc.vals
	pc.vals = append(pc.vals, pc.horizon)
	return pc
}

// MaxWindowSamples is the most samples a lifetime window may take: a
// LifeTable keeps a pair's visible-sample count in 15 bits.
const MaxWindowSamples = 1<<15 - 1

// WindowSamples returns how many samples ISLLifetime takes over a window
// of the given horizon and step (offsets 0, step, 2·step, … up to the
// horizon, accumulated as its loop accumulates them). It fails for a
// horizon or step that is not finite and positive, and for a window of
// more than MaxWindowSamples samples.
func WindowSamples(horizon, step float64) (int, error) {
	for _, v := range []float64{horizon, step} {
		if !(v > 0) || math.IsInf(v, 1) {
			return 0, fmt.Errorf("orbit: lifetime horizon %v and step %v must be finite and positive", horizon, step)
		}
	}
	n := 1
	for t := step; t <= horizon; t += step {
		if n++; n > MaxWindowSamples {
			return 0, fmt.Errorf("orbit: lifetime horizon %v at step %v takes more than %d samples", horizon, step, MaxWindowSamples)
		}
	}
	return n, nil
}

// NumSats returns the size of the cached satellite set.
func (pc *PropCache) NumSats() int { return len(pc.sats) }

// position returns satellite i's ECI position at time t, bit-identical to
// Elements.PositionECI: the same expressions over the same operands, with
// the mean motion and the rotations' sines and cosines taken from orb.
//
//tinyleo:hotpath
func (pc *PropCache) position(i int, t float64) geom.Vec3 {
	k := &pc.orb[i]
	s, c := math.Sincos(k.phase + k.n*t)
	p := geom.Vec3{X: k.a * c, Y: k.a * s}
	// p.RotX(Inclination).RotZ(RAAN), in geom.Vec3's expressions.
	p = geom.Vec3{X: p.X, Y: k.cosI*p.Y - k.sinI*p.Z, Z: k.sinI*p.Y + k.cosI*p.Z}
	return geom.Vec3{X: k.cosO*p.X - k.sinO*p.Y, Y: k.sinO*p.X + k.cosO*p.Y, Z: p.Z}
}

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
// first use. Concurrent callers for the same t share one build. The
// geometry stays valid for as long as its holder keeps it, eviction
// included.
func (pc *PropCache) Slot(t float64) *SlotGeom {
	pc.slotMu.Lock()
	e, _ := pc.entryLocked(t)
	e.shared = true
	pc.slotMu.Unlock()
	e.once.Do(func() {
		e.g = pc.newSlot()
		pc.fillSlot(e.g, t)
	})
	return e.g
}

// ChainSlot is Slot for the one caller that compiles a chain of slots,
// one after another: a geometry at t that no Slot caller has received is
// built in the memory of one DropSlotsBefore evicted, so a warm chain
// allocates none. It is valid until the caller's next DropSlotsBefore
// evicts it, and ChainSlot and DropSlotsBefore must be ordered with each
// other (called from one goroutine, or under one lock); Slot, from any
// goroutine, stays free to run alongside them.
func (pc *PropCache) ChainSlot(t float64) *SlotGeom {
	pc.slotMu.Lock()
	e, created := pc.entryLocked(t)
	var g *SlotGeom
	if n := len(pc.free); created && n > 0 {
		g = pc.free[n-1]
		pc.free = pc.free[:n-1]
	}
	pc.slotMu.Unlock()
	e.once.Do(func() {
		if g == nil {
			g = pc.newSlot()
		}
		pc.fillSlot(g, t)
		e.g = g
	})
	return e.g
}

// entryLocked returns the entry of slot t, adding an empty one (created)
// if there is none.
func (pc *PropCache) entryLocked(t float64) (e *slotEntry, created bool) {
	key := math.Float64bits(t)
	if e = pc.slots[key]; e == nil {
		e, created = &slotEntry{}, true
		pc.slots[key] = e
	}
	return e, created
}

// DropSlotsBefore evicts slot geometries older than t (long-running
// controllers compile an unbounded slot sequence, and this map is the one
// thing the cache keeps per slot). A Slot caller holding an evicted
// geometry keeps using it, and Slot rebuilds one on demand; a geometry
// only ChainSlot returned goes to the free list ChainSlot refills from.
func (pc *PropCache) DropSlotsBefore(t float64) {
	pc.slotMu.Lock()
	defer pc.slotMu.Unlock()
	for key, e := range pc.slots {
		if math.Float64frombits(key) >= t {
			continue
		}
		delete(pc.slots, key)
		// An entry Slot never touched was filled by ChainSlot, which the
		// caller orders with this call, so e.g is complete here.
		if !e.shared && e.g != nil && len(pc.free) < maxFree {
			//lint:tinyleo-ignore which evicted geometry is refilled first is unobservable: fillSlot overwrites every value
			pc.free = append(pc.free, e.g)
		}
	}
}

// NumSlots returns how many slot geometries the cache retains.
func (pc *PropCache) NumSlots() int {
	pc.slotMu.Lock()
	defer pc.slotMu.Unlock()
	return len(pc.slots)
}

// newSlot allocates an empty geometry for fillSlot.
func (pc *PropCache) newSlot() *SlotGeom {
	g := &SlotGeom{
		cache:    pc,
		pos:      make([]geom.Vec3, len(pc.sats)),
		sub:      make([]geom.LatLon, len(pc.sats)),
		subU:     make([]geom.Vec3, len(pc.sats)),
		maxRange: pc.isl.MaxRange,
	}
	if g.maxRange > 0 {
		g.bucket = make([][3]int32, len(pc.sats))
	}
	return g
}

// fillSlot overwrites every per-satellite value of g with the geometry at
// time t: positions by PropCache.position, and sub-satellite points as
// Elements.SubSatellitePoint takes them, ECEF = ECI·RotZ(−GMST(t)), with
// the Earth rotation's sine and cosine taken once for every satellite.
func (pc *PropCache) fillSlot(g *SlotGeom, t float64) {
	g.Time = t
	sr, cr := math.Sincos(-GMST(t))
	pc.posMisses.Add(uint64(len(pc.sats)))
	for i := range pc.sats {
		p := pc.position(i, t)
		g.pos[i] = p
		// p.RotZ(−GMST(t)), in geom.Vec3's expression.
		g.setSub(i, geom.Vec3{X: cr*p.X - sr*p.Y, Y: sr*p.X + cr*p.Y, Z: p.Z})
	}
	if g.maxRange > 0 {
		inv := 1 / g.maxRange
		for i, p := range g.pos {
			g.bucket[i] = [3]int32{
				int32(math.Floor(p.X * inv)),
				int32(math.Floor(p.Y * inv)),
				int32(math.Floor(p.Z * inv)),
			}
		}
	}
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
		CoverExact:  pc.coverExact.Load(),
	}
}

// CacheStats reports how much propagation the slot tables saved: hits and
// misses for positions and pair lifetimes (a hit is a value served from a
// compile's LifeTable, a miss one that was computed), candidate pairs the
// spatial grid pruned without any propagation, how many visibility
// samples the tables' lifetime walks resolved and how many of those came
// from the pair's previous run without calling Visible, and how many
// satellite–cell pairs the coverage query decided by the exact angle
// because the cosine test could not (SlotGeom.CoverageInto).
type CacheStats struct {
	PosHits, PosMisses     uint64
	LifeHits, LifeMisses   uint64
	PrunedPairs            uint64
	WarmSamples, WarmSkips uint64
	CoverExact             uint64
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
// candidate pairs before any lifetime prediction runs. Instances
// PropCache.Slot returns are immutable afterwards, so they are safe to
// share across goroutines; one PropCache.ChainSlot returned is refilled
// for a later slot once the chain has evicted it.
type SlotGeom struct {
	cache *PropCache
	// Time is the slot time (seconds since epoch) the geometry was
	// propagated at.
	Time float64
	pos  []geom.Vec3
	sub  []geom.LatLon
	// subU[i] is the unit vector of satellite i's ECEF position, what
	// CoverageInto's cosine test takes; a pair that test cannot decide
	// goes to the exact angle from sub[i].ToUnit(), as CentralAngle takes it.
	subU     []geom.Vec3
	bucket   [][3]int32
	maxRange float64
}

// setSub sets satellite i's sub-satellite point from its ECEF position.
func (g *SlotGeom) setSub(i int, ecef geom.Vec3) {
	g.sub[i], g.subU[i] = geom.FromUnit(ecef), ecef.Unit()
}

// Position returns satellite i's ECI position at the slot time.
func (g *SlotGeom) Position(i int) geom.Vec3 { return g.pos[i] }

// SubPoint returns satellite i's sub-satellite point at the slot time,
// bit-identical to Elements.SubSatellitePoint.
func (g *SlotGeom) SubPoint(i int) geom.LatLon { return g.sub[i] }

// Coverage computes the slot's satellite→cell coverage: cover[ci] lists,
// in ascending satellite order, every satellite whose footprint (angular
// radius radius[s]) covers centers[ci], and is nil if none does. This is
// the MPC's stage-0 query.
func (g *SlotGeom) Coverage(centers []geom.LatLon, radius []float64) [][]int {
	cosRadius := make([]float64, len(radius))
	for s, r := range radius {
		cosRadius[s] = math.Cos(r)
	}
	cover, _ := g.CoverageInto(nil, nil, centers, radius, cosRadius)
	return cover
}

// coverBand is the half-width, in cosine, of the band around a footprint's
// threshold cos(r) inside which CoverageInto leaves a pair to the exact
// angle. The exact test is AngleTo(v, cu) ≤ r for v = sub.ToUnit(); the
// cosine test reads su·cu for su, the normalised ECEF vector sub was
// converted from. su and v differ by a few ulp, except within a metre of a
// pole, where asin's conditioning lets the round trip through latitude
// move v by up to ~2e-8; the dot product, cos(r) and atan2 add a few ulp
// more, and cos has slope at most 1, so outside the band the two tests
// cannot disagree.
const coverBand = 1e-7

// CoverageInto is Coverage for a caller that computes one slot's coverage
// after another, in working memory it keeps: the lists are gathered in buf
// and then copied into one array of exactly their total size, and
// cover[ci] is a capacity-capped view of it (appending to one list
// reallocates it rather than overwrite the next). cover's backing array is
// reused for the result; it and buf are returned, grown as needed, for the
// next call. The lists of the previous result are not touched.
//
// cosRadius[s] must be math.Cos(radius[s]), which the caller takes once for
// every slot it queries. A pair is decided by comparing the cosine of its
// angle with it, and by CentralAngle's exact angle only within coverBand
// of it, so every list is the one the exact angle gives. A radius below 0
// covers nothing and one of π or more covers everything.
func (g *SlotGeom) CoverageInto(cover [][]int, buf []int, centers []geom.LatLon, radius, cosRadius []float64) ([][]int, []int) {
	cover, buf = slices.Grow(cover[:0], len(centers))[:len(centers)], buf[:0]
	exact := 0
	for ci, c := range centers {
		cu, start := c.ToUnit(), len(buf)
		for si, su := range g.subU {
			d, cr := su.Dot(cu), cosRadius[si]
			if d < cr-coverBand && radius[si] < math.Pi {
				continue // well outside: most pairs leave here
			}
			switch r := radius[si]; {
			case r < 0: // covers nothing
			case r >= math.Pi || d > cr+coverBand:
				buf = append(buf, si)
			default:
				exact++
				if g.sub[si].ToUnit().AngleTo(cu) <= r {
					buf = append(buf, si)
				}
			}
		}
		cover[ci] = buf[start:] // only its length is read below
	}
	g.cache.coverExact.Add(uint64(exact))
	all, start := make([]int, len(buf)), 0
	copy(all, buf)
	for ci, list := range cover {
		if end := start + len(list); end > start {
			cover[ci], start = all[start:end:end], end
		} else {
			cover[ci] = nil
		}
	}
	return cover, buf
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
