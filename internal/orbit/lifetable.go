package orbit

// LifeTable holds the ISL lifetimes τ of one slot compile. The matching
// stages consult each in-range pair once per adjacent cell pair it
// straddles (~23 times at 1,764 satellites), always at the one slot time,
// so the table is dense and indexed by position: the satellites covering
// any intent cell at the slot (the active set, ~400 of 1,764) are numbered
// 0..n-1 and τ lives in a flat lower-triangular slice, diagonal included
// (a satellite covering two adjacent cells is asked for τ with itself),
// filled on first use. Footprint: n(n+1)/2 × 8 B — 0.64 MB at n = 400,
// 12.5 MB were all 1,764 satellites active.
//
// The zero value is ready for Reset. A table is not safe for concurrent
// use: each compile owns one (the DeltaCompile chain keeps its own and
// resets it every slot, so a warm slot allocates nothing here).
type LifeTable struct {
	g     *SlotGeom
	local []int32   // satellite → index in the active set, -1 outside it
	tau   []float64 // τ by triangular index; < 0 = not yet computed
	hits  uint64    // served from tau since the last Flush
}

// Reset scopes the table to slot geometry g with the satellites of the
// coverage lists (SlotGeom.Coverage's result) as its active set, and
// forgets every τ of the previous slot.
func (lt *LifeTable) Reset(g *SlotGeom, cover [][]int) {
	lt.g = g
	if len(lt.local) != len(g.pos) {
		lt.local = make([]int32, len(g.pos))
	}
	for i := range lt.local {
		lt.local[i] = -1
	}
	n := 0
	for _, sats := range cover {
		for _, s := range sats {
			if lt.local[s] < 0 {
				lt.local[s] = int32(n)
				n++
			}
		}
	}
	if size := n * (n + 1) / 2; cap(lt.tau) < size {
		lt.tau = make([]float64, size)
	} else {
		lt.tau = lt.tau[:size]
	}
	for k := range lt.tau {
		lt.tau[k] = -1
	}
}

// Lifetime returns τ between satellites i and j established at the slot
// time — SlotGeom.Lifetime, computed at most once per pair and slot. A
// pair with a satellite outside the active set has no entry and is
// computed on every call.
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
		lt.hits++
		return v
	}
	v := lt.g.Lifetime(i, j)
	lt.tau[k] = v
	return v
}

// Flush adds the hits counted since the last Flush to the cache's
// CacheStats: one atomic add per compile, where the hits themselves
// number in the hundreds of thousands.
func (lt *LifeTable) Flush() {
	lt.g.cache.lifeHits.Add(lt.hits)
	lt.hits = 0
}
