package orbit

import (
	"math"
	"unsafe"

	"repro/internal/geom"
)

// LifeTable holds what one slot compile samples: the ISL lifetimes τ of
// the slot, the ECI positions their prediction walks propagate, and each
// pair's last visibility run. The matching stages consult each in-range
// pair once per adjacent cell pair it straddles (~23 times at 1,764
// satellites), always at the one slot time t0, and every time a walk
// samples is t0+offs[m], so everything is dense and indexed, never hashed
// or locked: the satellites covering any intent cell at the slot (the
// active set, ~400 of 1,764) are numbered 0..n-1, τ and the runs live in
// flat lower-triangular slices over those numbers, diagonal included (a
// satellite covering two adjacent cells is asked for τ with itself), and
// positions in a [sample][number] table, all filled on first use (a
// position by PropCache.position, one Sincos).
//
// τ can only be 0, one of the window's sample offsets or the horizon, so
// the triangle holds a 2-byte code into PropCache.vals, and a run is one
// 32-bit word whose base time is named by an epoch (visRun).
// Footprint per n(n+1)/2 pairs: 2 B of τ and 4 B of run, plus 24 B per
// (sample, number) — 0.16 + 0.32 + 0.59 MB at n = 400 and 61 samples.
//
// Stage 1 asks for a satellite's mean τ over a neighbour cell's list,
// ~716 k lookups a slot at 1,764 satellites: MeanLifetime takes them in
// one pass, with the satellite's number held. τ is not memoised per
// (satellite, cell) on top: a table the size of the active set times the
// intent's cells costs megabytes a slot for a few percent.
//
// A table that has compiled a previous slot is warm: a satellite keeps its
// number for as long as it stays active, so a pair's run stays where the
// next slot's walk looks for it, and the walk skips every sample the run
// already observed. τ and positions are forgotten at every Reset.
//
// The zero value is ready for Reset. A table is not safe for concurrent
// use: each compile owns one (the DeltaCompile chain keeps its own and
// resets it every slot, so a warm slot allocates nothing here). A chain's
// table is made with a quarter more room than the slot that sizes it needs,
// never more than the whole constellation can take, so a chain whose active
// set gains a few numbers over its first slots sizes its tables once; a
// one-shot compile's is made at its exact size.
type LifeTable struct {
	pc    *PropCache // the cache whose satellites local and inSet index
	g     *SlotGeom
	local []int32     // satellite → number in the active set, -1 outside it
	sat   []int32     // number → satellite, -1 while the number is free
	inSet []bool      // Reset's scratch: the satellites of the new coverage lists
	tau   []uint16    // τ code (an index into pc.vals) by triangular index; tauUnknown = not yet computed
	runs  []visRun    // last visibility run by triangular index, kept across slots
	pos   []geom.Vec3 // pos[m*n+a]: number a at sample m; NaN X = not yet propagated
	stats CacheStats  // counted since the last Flush

	// epoch counts Resets, modulo 2^16; bases[e%runRing] is the slot time
	// of the Reset that had epoch e, for the last runRing of them.
	epoch uint16
	bases [runRing]float64
}

const (
	// tauUnknown is the τ code of a pair not yet computed this slot.
	tauUnknown = 0xFFFF
	// runRing is how many Resets back a run's base time is remembered: an
	// older run counts as unknown, which costs its pair's next walk real
	// Visible calls and never a wrong τ. A run is only ever reused within
	// len(offs)·step of its base, which no chain in this repository spans
	// in runRing slots.
	runRing = 256
	// runSweep is how often, in Resets, the runs runRing or more Resets
	// old are cleared, so that a run's age modulo 2^16 is its age.
	runSweep = 1 << 15
)

// visRun records the outcome of one lifetime walk for a satellite pair:
// which visibility samples it observed and what they were. A later walk
// of the same pair at a nearby establishment time takes most of its
// samples from the record instead of calling Visible — soundly, because
// a sample is only reused when its absolute time is bit-identical to
// the recorded sample's, and visibility is a pure function of (pair,
// time). The zero value records nothing.
//
// The word packs, high to low: the 16-bit epoch of the Reset whose slot
// time the walk established at (sample m was taken at that time plus
// offs[m]), one bit set when sample vis was invisible (clear: the walk
// reached the horizon), and 15 bits of vis — samples [0, vis) were
// visible.
type visRun uint32

const (
	runEnded = 1 << 15
	runVis   = runEnded - 1
)

func (r visRun) epoch() uint16 { return uint16(r >> 16) }
func (r visRun) vis() int      { return int(r & runVis) }
func (r visRun) ended() bool   { return r&runEnded != 0 }

// Reset scopes the table to slot geometry g with the satellites of the
// coverage lists (SlotGeom.Coverage's result) as its active set, and
// forgets every τ and position of the previous slot. Runs survive for the
// pairs whose satellites both stay active, and serve for runRing Resets.
// chain says the table will be Reset for later slots, and so gets room to
// grow into.
func (lt *LifeTable) Reset(g *SlotGeom, cover [][]int, chain bool) {
	// The previous slot's geometry is not read: the chain that owns this
	// table may have refilled it for this slot.
	if lt.pc != g.cache {
		lt.pc = g.cache
		lt.local = make([]int32, len(g.pos))
		for i := range lt.local {
			lt.local[i] = -1
		}
		lt.inSet = make([]bool, len(g.pos))
		lt.sat, lt.runs = lt.sat[:0], lt.runs[:0]
	}
	lt.g = g
	active := 0
	for _, sats := range cover {
		for _, s := range sats {
			if !lt.inSet[s] {
				lt.inSet[s] = true
				active++
			}
		}
	}
	// A satellite that left frees its number, and the runs filed under the
	// number go with it: the next holder is another satellite.
	for a, s := range lt.sat {
		if s >= 0 && !lt.inSet[s] {
			lt.local[s], lt.sat[a] = -1, -1
			lt.dropRuns(a)
		}
	}
	// Every active satellite holds one number, the newcomers the lowest
	// free ones, so the numbers run up to the larger of the old count and
	// the active set's size.
	all := len(g.pos)
	old := len(lt.sat)
	lt.sat = grow(lt.sat, max(old, active), all, chain)
	for a := old; a < len(lt.sat); a++ {
		lt.sat[a] = -1
	}
	free := 0
	for _, sats := range cover {
		for _, s := range sats {
			lt.inSet[s] = false
			if lt.local[s] >= 0 {
				continue
			}
			for lt.sat[free] >= 0 {
				free++
			}
			lt.local[s], lt.sat[free] = int32(free), int32(s)
		}
	}
	n := len(lt.sat)
	pairs, maxPairs := n*(n+1)/2, all*(all+1)/2
	old = len(lt.runs)
	lt.runs = grow(lt.runs, pairs, maxPairs, chain)
	clear(lt.runs[old:])
	lt.epoch++
	if lt.epoch%runSweep == 0 {
		lt.dropStaleRuns()
	}
	lt.bases[lt.epoch%runRing] = g.Time
	lt.tau = grow(lt.tau[:0], pairs, maxPairs, chain)
	for k := range lt.tau {
		lt.tau[k] = tauUnknown
	}
	samples := len(g.cache.offs)
	lt.pos = grow(lt.pos[:0], samples*n, samples*all, chain)
	for k := range lt.pos {
		lt.pos[k].X = math.NaN()
	}
	// Sample 0 is the slot time itself, which g already propagated.
	for a, s := range lt.sat {
		if s >= 0 {
			lt.pos[a] = g.pos[s]
		}
	}
}

// grow returns s at length need, its contents kept. A slice too small is
// made anew at capacity need, or, when room is asked for, with a quarter
// more than need, the step by which append regrows a large slice, so a
// chain's table sized once is not sized again as the active set gains a few
// numbers; the room never passes limit, the length at which every satellite
// holds a number.
func grow[E any](s []E, need, limit int, room bool) []E {
	if need <= cap(s) {
		return s[:need]
	}
	if !room {
		limit = need
	}
	t := make([]E, need, min(need+need/4, limit))
	copy(t, s)
	return t
}

// dropRuns forgets the runs of every pair that includes number a.
func (lt *LifeTable) dropRuns(a int) {
	row := a * (a + 1) / 2
	clear(lt.runs[row : row+a+1])
	for b := a + 1; b < len(lt.sat); b++ {
		lt.runs[b*(b+1)/2+a] = 0
	}
}

// dropStaleRuns forgets every run runRing or more Resets old.
func (lt *LifeTable) dropStaleRuns() {
	for k, r := range lt.runs {
		if lt.epoch-r.epoch() >= runRing {
			lt.runs[k] = 0
		}
	}
}

// Lifetime returns τ between satellites i and j established at the slot
// time — SlotGeom.Lifetime, computed at most once per pair and slot. A
// pair with a satellite outside the active set has no entry and is
// computed on every call.
//
//tinyleo:hotpath
func (lt *LifeTable) Lifetime(i, j int) float64 {
	a, b := int(lt.local[i]), int(lt.local[j])
	if a < 0 || b < 0 {
		return lt.g.Lifetime(i, j)
	}
	if a < b {
		a, b = b, a
	}
	k := a*(a+1)/2 + b
	if c := lt.tau[k]; c != tauUnknown {
		lt.stats.LifeHits++
		return lt.pc.vals[c]
	}
	c := lt.walk(i, j, k)
	lt.tau[k] = c
	return lt.pc.vals[c]
}

// MeanLifetime returns stage 1's preference weight τ_{i,v}: the mean of
// Lifetime(i, j) over the satellites js of neighbour cell v, summed in js's
// order, so bit-identical to adding up the lookups one by one; 0 for an
// empty cell. i's number and triangular row are held across the walk, and
// the table's hits are counted once per call.
//
//tinyleo:hotpath
func (lt *LifeTable) MeanLifetime(i int, js []int) float64 {
	if len(js) == 0 {
		return 0
	}
	a := int(lt.local[i])
	row, sum, hits := a*(a+1)/2, 0.0, 0
	vals := lt.pc.vals
	for _, j := range js {
		b := int(lt.local[j])
		if a < 0 || b < 0 {
			sum += lt.g.Lifetime(i, j)
			continue
		}
		k := row + b
		if b > a {
			k = b*(b+1)/2 + a
		}
		c := lt.tau[k]
		if c != tauUnknown {
			hits++
		} else {
			c = lt.walk(i, j, k)
			lt.tau[k] = c
		}
		sum += vals[c]
	}
	lt.stats.LifeHits += uint64(hits)
	return sum / float64(len(js))
}

// walk is ISLLifetime for the active pair (i, j) with triangular index k,
// over the table's positions and the pair's previous run, and returns τ's
// code: it steps through the identical sample sequence t0+offs[m], but
// takes any sample whose absolute time bit-matches one the previous run
// observed from the record instead of calling Visible. Visibility is a
// pure function of (pair, time) and reuse requires bitwise time identity,
// so τ is bit-identical to ISLLifetime's; a run recorded on another sample
// grid matches nowhere and the walk degrades to real Visible calls.
func (lt *LifeTable) walk(i, j, k int) uint16 {
	g := lt.g
	if !g.inRange(i, j) {
		lt.stats.PrunedPairs++
		return 0
	}
	lt.stats.LifeMisses++
	if i > j {
		i, j = j, i
	}
	pc := g.cache
	a, b := int(lt.local[i]), int(lt.local[j])
	r := lt.runs[k]
	rvis, rended := r.vis(), r.ended()
	// The run's sample grid and ours share the step, so the record index
	// of sample m is m plus a constant shift, computed once. The bitwise
	// time check below still validates every candidate, so a wrong guess
	// costs a Visible call, never a wrong answer.
	known, shift, base := (rvis > 0 || rended) && lt.epoch-r.epoch() < runRing, 0, 0.0
	if known {
		base = lt.bases[r.epoch()%runRing]
		shift = int(math.Round((g.Time - base) / pc.step))
	}
	vis, code := 0, len(pc.offs)
	for m, off := range pc.offs {
		visible, recorded := false, false
		if q := m + shift; known && q >= 0 && q < len(pc.offs) && base+pc.offs[q] == g.Time+off {
			visible = q < rvis
			recorded = visible || (rended && q == rvis)
		}
		if recorded {
			lt.stats.WarmSkips++
		} else {
			visible = pc.isl.Visible(lt.position(m, a, i), lt.position(m, b, j))
		}
		if !visible {
			code = m
			break
		}
		vis++
	}
	nr := visRun(lt.epoch)<<16 | visRun(vis)
	lt.stats.WarmSamples += uint64(vis)
	if code < len(pc.offs) {
		lt.stats.WarmSamples++
		nr |= runEnded
	}
	lt.runs[k] = nr
	return uint16(code)
}

// position returns satellite i's (number a's) ECI position at sample m,
// bit-identical to Elements.PositionECI at the slot time plus offs[m],
// propagating it on first use.
//
//tinyleo:hotpath
func (lt *LifeTable) position(m, a, i int) geom.Vec3 {
	p := &lt.pos[m*len(lt.sat)+a]
	if !math.IsNaN(p.X) {
		lt.stats.PosHits++
		return *p
	}
	lt.stats.PosMisses++
	pc := lt.g.cache
	*p = pc.position(i, lt.g.Time+pc.offs[m])
	return *p
}

// Footprint returns the bytes the τ and run tables take, their capacity
// at their entry sizes, and the pairs each holds, n(n+1)/2 over the n
// numbers the active set has needed so far.
func (lt *LifeTable) Footprint() (tau, runs, pairs int) {
	tau = cap(lt.tau) * int(unsafe.Sizeof(lt.tau[0]))
	runs = cap(lt.runs) * int(unsafe.Sizeof(lt.runs[0]))
	return tau, runs, len(lt.runs)
}

// Flush adds what the table counted since the last Flush to the cache's
// CacheStats: a few atomic adds per compile, where the events themselves
// number in the hundreds of thousands.
func (lt *LifeTable) Flush() {
	pc, st := lt.pc, lt.stats
	pc.posHits.Add(st.PosHits)
	pc.posMisses.Add(st.PosMisses)
	pc.lifeHits.Add(st.LifeHits)
	pc.lifeMisses.Add(st.LifeMisses)
	pc.pruned.Add(st.PrunedPairs)
	pc.warmSamples.Add(st.WarmSamples)
	pc.warmSkips.Add(st.WarmSkips)
	lt.stats = CacheStats{}
}
