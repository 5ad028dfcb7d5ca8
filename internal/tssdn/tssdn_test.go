package tssdn

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/orbit"
)

func walkerSats() []orbit.Elements {
	return baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 550, Planes: 8, SatsPerPlane: 8, PhasingF: 1,
	}.Satellites()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty constellation accepted")
	}
	if _, err := New(Config{Sats: walkerSats()}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestTopologyRespectsBudgetAndVisibility(t *testing.T) {
	c, err := New(Config{Sats: walkerSats()})
	if err != nil {
		t.Fatal(err)
	}
	links := c.Topology(0)
	if len(links) == 0 {
		t.Fatal("no ISLs")
	}
	degree := map[int]int{}
	for _, l := range links {
		degree[l[0]]++
		degree[l[1]]++
		a := c.cfg.Sats[l[0]].PositionECI(0)
		b := c.cfg.Sats[l[1]].PositionECI(0)
		if !orbit.DefaultISLParams.Visible(a, b) {
			t.Errorf("invisible pair linked: %v", l)
		}
	}
	for s, d := range degree {
		if d > maxISLsPerSat {
			t.Errorf("sat %d degree %d", s, d)
		}
	}
}

func TestStepCountsChanges(t *testing.T) {
	c, err := New(Config{Sats: walkerSats()})
	if err != nil {
		t.Fatal(err)
	}
	first := c.Step(0)
	if first.ISLs == 0 || first.RouteUpdates == 0 {
		t.Fatalf("first slot: %+v", first)
	}
	// Identical time: no changes.
	same := c.Step(0)
	if same.ISLChanges != 0 || same.RouteUpdates != 0 {
		t.Errorf("no-motion slot reported changes: %+v", same)
	}
	// Five minutes later: LEO motion must change something.
	later := c.Step(300)
	if later.ISLChanges == 0 && later.RouteUpdates == 0 {
		t.Error("5 minutes of LEO motion produced zero reconfiguration")
	}
	if later.Messages != int64(2*later.ISLChanges)+later.RouteUpdates {
		t.Error("message accounting inconsistent")
	}
}

func TestRouteAggregationReducesUpdates(t *testing.T) {
	// The +RA variant of Figure 17 must send no more route updates than
	// the unaggregated controller over the same horizon.
	sats := walkerSats()
	plain, err := New(Config{Sats: sats})
	if err != nil {
		t.Fatal(err)
	}
	// Stable prefix-style groups (groupOf). Grouping by the
	// destination's *geographic cell* would churn the aggregate keys as
	// satellites move and can send MORE updates — the paper's observation
	// that aggregation helps little under non-uniform motion.
	ra, err := New(Config{Sats: sats, RouteAggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	var totalPlain, totalRA int64
	for _, tt := range []float64{0, 300, 600, 900} {
		totalPlain += plain.Step(tt).RouteUpdates
		totalRA += ra.Step(tt).RouteUpdates
	}
	if totalRA > totalPlain {
		t.Errorf("RA (%d) sent more route updates than plain (%d)", totalRA, totalPlain)
	}
	if totalRA == 0 {
		t.Error("RA suspiciously sent zero updates")
	}
}

func TestDefaultGrouping(t *testing.T) {
	if g := groupOf(17); g != 2 {
		t.Errorf("default group of 17 = %d", g)
	}
}
