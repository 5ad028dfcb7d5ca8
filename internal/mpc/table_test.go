package mpc_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/mpc"
	"repro/internal/orbit"
)

// TestDeltaChainLifetimesMatchDirect is the slot table's property test on
// the 529-satellite testbed: over a DeltaCompile chain whose active set
// changes every slot, every τ the table holds after a slot — the ones the
// compile consulted, served back as hits, and the rest of the active
// pairs — equals orbit.ISLLifetime bit for bit in either argument order,
// and every slot equals a fresh controller's cold Compile.
func TestDeltaChainLifetimesMatchDirect(t *testing.T) {
	for _, dt := range []float64{30, 300} {
		t.Run(fmt.Sprintf("dt=%v", dt), func(t *testing.T) {
			tb, err := chaos.NewTestbed(chaos.TestbedConfig{Sats: 529})
			if err != nil {
				t.Fatal(err)
			}
			cfg := tb.Ctl.Config()
			cold, err := mpc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct := func(i, j int, t0 float64) float64 {
				return orbit.ISLLifetime(cfg.Sats[i], cfg.Sats[j], t0, cfg.LifetimeHorizon, cfg.LifetimeStep, cfg.ISL)
			}
			var lastActive []int
			setsChanged := 0
			snap := tb.Snap
			for slot := 1; slot <= 30; slot++ {
				t0 := float64(slot) * dt
				hits0 := tb.Ctl.CacheStats().LifeHits
				snap = tb.Ctl.DeltaCompile(snap, t0)
				if !reflect.DeepEqual(snap, cold.Compile(t0)) {
					t.Fatalf("slot %d: delta chain diverged from a cold compile", slot)
				}
				if tb.Ctl.CacheStats().LifeHits == hits0 {
					t.Fatalf("slot %d: the compile served no τ from its table", slot)
				}
				active := activeSats(snap)
				if !reflect.DeepEqual(active, lastActive) {
					setsChanged++
				}
				lastActive = active
				lt := tb.Ctl.DeltaLifeTable()
				for _, i := range active {
					for _, j := range active {
						want := direct(i, j, t0)
						if got := lt.Lifetime(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("slot %d pair (%d,%d): table τ %v != direct %v", slot, i, j, got, want)
						}
					}
				}
			}
			if setsChanged < 25 {
				t.Errorf("active set changed on %d of 30 slots; the chain should reindex nearly every slot", setsChanged)
			}
		})
	}
}

// TestSlotTableFootprint: after a 30-slot DeltaCompile chain at
// control-steady's sizing (1,764 satellites, dt = 30 s), the chain's τ
// and run tables take at most 1.25 × 6 B for each of the n(n+1)/2 pairs
// the active set spans: a 2-byte τ code and a 4-byte run, plus the growth
// headroom of append. A τ entry back at 8 B or a run at 16 B exceeds it.
func TestSlotTableFootprint(t *testing.T) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{Sats: 1764, SlotSeconds: 150})
	if err != nil {
		t.Fatal(err)
	}
	snap := tb.Snap
	for slot := 1; slot <= 30; slot++ {
		snap = tb.Ctl.DeltaCompile(snap, float64(slot)*30)
	}
	tau, runs, pairs := tb.Ctl.DeltaLifeTable().Footprint()
	if pairs < 50_000 {
		t.Fatalf("the active set spans %d pairs; the chain should number ~400 satellites", pairs)
	}
	if limit := 6 * pairs * 5 / 4; tau+runs > limit {
		t.Errorf("%d pairs take %d B of τ and %d B of runs, %d B together; bound %d B",
			pairs, tau, runs, tau+runs, limit)
	}
}

// activeSats is the union of a snapshot's coverage lists, ascending.
func activeSats(s *mpc.Snapshot) []int {
	seen := map[int]bool{}
	var out []int
	for _, sats := range s.CellSats {
		for _, sat := range sats {
			if !seen[sat] {
				seen[sat] = true
				out = append(out, sat)
			}
		}
	}
	sort.Ints(out)
	return out
}

// TestColdStartedChainMatchesCompile: a chain started by DeltaCompile(nil,
// 0), which compiles its cold slot in the chain's own memory, equals slot
// for slot a chain started from Compile(0)'s snapshot and a fresh
// controller's Compile, on the 100-satellite testbed, where the matching
// leaves a gateway list empty: the empty list stays a non-nil one.
func TestColdStartedChainMatchesCompile(t *testing.T) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{Sats: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tb.Ctl.Config()
	newCtl := func() *mpc.Controller {
		c, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cold, fromNil, fromCompile := newCtl(), newCtl(), newCtl()
	var a, b *mpc.Snapshot
	empty := 0
	for slot := range 8 {
		t0 := float64(slot) * 30
		a = fromNil.DeltaCompile(a, t0)
		if slot == 0 {
			b = fromCompile.Compile(t0)
		} else {
			b = fromCompile.DeltaCompile(b, t0)
		}
		want := cold.Compile(t0)
		if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
			t.Fatalf("slot %d: the chains started by DeltaCompile(nil, 0) and by Compile(0) differ from a cold compile", slot)
		}
		for edge, gws := range a.Gateways {
			if len(gws) == 0 {
				empty++
				if gws == nil {
					t.Errorf("slot %d: the empty gateway list of %v is nil", slot, edge)
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no slot left a gateway list empty; the test needs one")
	}
}
