package orbit

import (
	"math"
	"slices"

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
// Footprint per n(n+1)/2 pairs: 8 B of τ and 16 B of run, plus 24 B per
// (sample, number) — 0.64 + 1.28 + 0.59 MB at n = 400 and 61 samples.
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
// resets it every slot, so a warm slot allocates nothing here).
type LifeTable struct {
	pc    *PropCache // the cache whose satellites local and inSet index
	g     *SlotGeom
	local []int32     // satellite → number in the active set, -1 outside it
	sat   []int32     // number → satellite, -1 while the number is free
	inSet []bool      // Reset's scratch: the satellites of the new coverage lists
	tau   []float64   // τ by triangular index; < 0 = not yet computed
	runs  []visRun    // last visibility run by triangular index, kept across slots
	pos   []geom.Vec3 // pos[m*n+a]: number a at sample m; NaN X = not yet propagated
	stats CacheStats  // counted since the last Flush
}

// visRun records the outcome of one lifetime walk for a satellite pair:
// which visibility samples it observed and what they were. A later walk
// of the same pair at a nearby establishment time takes most of its
// samples from the record instead of calling Visible — soundly, because
// a sample is only reused when its absolute time is bit-identical to
// the recorded sample's, and visibility is a pure function of (pair,
// time). The zero value records nothing.
type visRun struct {
	base  float64 // establishment time: sample m was taken at base+offs[m]
	vis   int32   // samples [0, vis) were visible
	ended bool    // sample vis was invisible (false: the walk reached the horizon)
}

// Reset scopes the table to slot geometry g with the satellites of the
// coverage lists (SlotGeom.Coverage's result) as its active set, and
// forgets every τ and position of the previous slot. Runs survive for the
// pairs whose satellites both stay active.
func (lt *LifeTable) Reset(g *SlotGeom, cover [][]int) {
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
	for _, sats := range cover {
		for _, s := range sats {
			lt.inSet[s] = true
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
	free := 0
	for _, sats := range cover {
		for _, s := range sats {
			lt.inSet[s] = false
			if lt.local[s] >= 0 {
				continue
			}
			for free < len(lt.sat) && lt.sat[free] >= 0 {
				free++
			}
			if free == len(lt.sat) {
				lt.sat = append(lt.sat, -1)
			}
			lt.local[s], lt.sat[free] = int32(free), int32(s)
		}
	}
	n := len(lt.sat)
	pairs := n * (n + 1) / 2
	if old := len(lt.runs); old < pairs {
		lt.runs = slices.Grow(lt.runs, pairs-old)[:pairs]
		clear(lt.runs[old:])
	}
	lt.tau = slices.Grow(lt.tau[:0], pairs)[:pairs]
	for k := range lt.tau {
		lt.tau[k] = -1
	}
	lt.pos = slices.Grow(lt.pos[:0], len(g.cache.offs)*n)[:len(g.cache.offs)*n]
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

// dropRuns forgets the runs of every pair that includes number a.
func (lt *LifeTable) dropRuns(a int) {
	row := a * (a + 1) / 2
	clear(lt.runs[row : row+a+1])
	for b := a + 1; b < len(lt.sat); b++ {
		lt.runs[b*(b+1)/2+a] = visRun{}
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
	if v := lt.tau[k]; v >= 0 {
		lt.stats.LifeHits++
		return v
	}
	v := lt.walk(i, j, k)
	lt.tau[k] = v
	return v
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
		v := lt.tau[k]
		if v >= 0 {
			hits++
		} else {
			v = lt.walk(i, j, k)
			lt.tau[k] = v
		}
		sum += v
	}
	lt.stats.LifeHits += uint64(hits)
	return sum / float64(len(js))
}

// walk is ISLLifetime for the active pair (i, j) with triangular index k,
// over the table's positions and the pair's previous run: it steps
// through the identical sample sequence t0+offs[m], but takes any sample
// whose absolute time bit-matches one the previous run observed from the
// record instead of calling Visible. Visibility is a pure function of
// (pair, time) and reuse requires bitwise time identity, so τ is
// bit-identical to ISLLifetime's; a run recorded on another sample grid
// matches nowhere and the walk degrades to real Visible calls.
func (lt *LifeTable) walk(i, j, k int) float64 {
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
	// The run's sample grid and ours share the step, so the record index
	// of sample m is m plus a constant shift, computed once. The bitwise
	// time check below still validates every candidate, so a wrong guess
	// costs a Visible call, never a wrong answer.
	known, shift := r.vis > 0 || r.ended, 0
	if known {
		shift = int(math.Round((g.Time - r.base) / pc.step))
	}
	nr := visRun{base: g.Time}
	tau := pc.horizon
	for m, off := range pc.offs {
		visible, recorded := false, false
		if q := m + shift; known && q >= 0 && q < len(pc.offs) && r.base+pc.offs[q] == g.Time+off {
			visible = q < int(r.vis)
			recorded = visible || (r.ended && q == int(r.vis))
		}
		if recorded {
			lt.stats.WarmSkips++
		} else {
			visible = pc.isl.Visible(lt.position(m, a, i), lt.position(m, b, j))
		}
		if !visible {
			tau, nr.ended = off, true
			break
		}
		nr.vis++
	}
	lt.stats.WarmSamples += uint64(nr.vis)
	if nr.ended {
		lt.stats.WarmSamples++
	}
	lt.runs[k] = nr
	return tau
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
