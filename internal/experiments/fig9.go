package experiments

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/orbit"
	"repro/internal/routing"
)

// Figure9 reproduces Figure 9: the non-uniform (TinyLEO) network's
// physical dynamics versus a uniform Walker network of the same size —
// establishable ISLs (9a) and shortest-path churn among satellites (9b)
// over time. The uniform network is the smallest square Walker shell (53°,
// 550 km) with at least as many satellites as tinySats.
func Figure9(scale Scale, tinySats []orbit.Elements) []*metrics.Table {
	side := 1
	for side*side < len(tinySats) {
		side++
	}
	uniformSats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 550, Planes: side, SatsPerPlane: side, PhasingF: 1,
	}.Satellites()
	isls := metrics.NewTable("Figure 9a: establishable ISLs over time",
		"minute", "non-uniform", "uniform")
	churn := metrics.NewTable("Figure 9b: shortest-path changes among satellites",
		"minute", "non-uniform changed", "uniform changed", "pairs sampled")

	// Sample O-D satellite pairs for path-churn accounting.
	rng := rand.New(rand.NewSource(42))
	pairs := samplePairs(rng, min(len(tinySats), len(uniformSats)), 40)

	var prevTiny, prevUni *graphPair
	for s := 0; s < scale.ControlSlots; s++ {
		t := float64(s) * scale.ControlDt
		tiny := buildVisibilityGraph(tinySats, t)
		uni := buildVisibilityGraph(uniformSats, t)
		isls.AddRow(int(t/60), tiny.links, uni.links)
		if prevTiny != nil {
			tc := routing.PathChange(prevTiny.g, tiny.g, pairs)
			uc := routing.PathChange(prevUni.g, uni.g, pairs)
			churn.AddRow(int(t/60), tc, uc, len(pairs))
		}
		prevTiny, prevUni = tiny, uni
	}
	return []*metrics.Table{isls, churn}
}

type graphPair struct {
	g     *routing.Graph
	links int
}

// buildVisibilityGraph counts and records all establishable ISLs
// (visibility + range) at time t.
func buildVisibilityGraph(sats []orbit.Elements, t float64) *graphPair {
	pos := make([]geom.Vec3, len(sats))
	for i, e := range sats {
		pos[i] = e.PositionECI(t)
	}
	g := routing.NewGraph(len(sats))
	links := 0
	p := orbit.DefaultISLParams
	for i := range sats {
		for j := i + 1; j < len(sats); j++ {
			if p.Visible(pos[i], pos[j]) {
				g.AddBiEdge(i, j, pos[i].Dist(pos[j]))
				links++
			}
		}
	}
	return &graphPair{g: g, links: links}
}

func samplePairs(rng *rand.Rand, n, k int) [][2]int {
	var pairs [][2]int
	for len(pairs) < k && n >= 2 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}
