package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalizeLon(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {540, -180}, {-360, 0}, {720.5, 0.5},
	}
	for _, c := range cases {
		if got := NormalizeLon(c.in); !approx(got, c.want, 1e-9) {
			t.Errorf("NormalizeLon(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeLonRange(t *testing.T) {
	f := func(x float64) bool {
		l := NormalizeLon(math.Mod(x, 1e6))
		return l >= -180 && l < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatLonRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := LatLon{Lat: rng.Float64()*178 - 89, Lon: rng.Float64()*360 - 180}
		got := FromUnit(p.ToUnit())
		if !approx(got.Lat, p.Lat, 1e-9) || !approx(got.Lon, p.Lon, 1e-9) {
			t.Fatalf("roundtrip %v -> %v", p, got)
		}
	}
}

func TestToECEFAltitude(t *testing.T) {
	p := LatLon{Lat: 45, Lon: 90}
	v := p.ToECEF(550e3)
	if !approx(v.Norm(), EarthRadius+550e3, 1e-6) {
		t.Errorf("ECEF norm = %v", v.Norm())
	}
}

func TestGreatCircleDistKnown(t *testing.T) {
	// Equator quarter circumference.
	d := GreatCircleDist(LatLon{0, 0}, LatLon{0, 90})
	want := EarthRadius * math.Pi / 2
	if !approx(d, want, 1) {
		t.Errorf("quarter equator = %v, want %v", d, want)
	}
	// Pole to pole.
	d = GreatCircleDist(LatLon{90, 0}, LatLon{-90, 0})
	if !approx(d, EarthRadius*math.Pi, 1) {
		t.Errorf("pole-to-pole = %v", d)
	}
	// London to New York, roughly 5,570 km.
	d = GreatCircleDist(LatLon{51.5, -0.13}, LatLon{40.7, -74.0})
	if d < 5.4e6 || d > 5.7e6 {
		t.Errorf("London-NY = %v km", d/1e3)
	}
}

func TestGreatCircleSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randPt := func() LatLon {
		return LatLon{Lat: rng.Float64()*178 - 89, Lon: rng.Float64()*360 - 180}
	}
	for i := 0; i < 200; i++ {
		a, b, c := randPt(), randPt(), randPt()
		if !approx(GreatCircleDist(a, b), GreatCircleDist(b, a), 1e-6) {
			t.Fatal("distance not symmetric")
		}
		// Triangle inequality with slack for fp error.
		if GreatCircleDist(a, c) > GreatCircleDist(a, b)+GreatCircleDist(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestIntermediateEndpoints(t *testing.T) {
	a := LatLon{10, 20}
	b := LatLon{-35, 140}
	if got := Intermediate(a, b, 0); GreatCircleDist(got, a) > 1 {
		t.Errorf("f=0: %v", got)
	}
	if got := Intermediate(a, b, 1); GreatCircleDist(got, b) > 1 {
		t.Errorf("f=1: %v", got)
	}
	mid := Intermediate(a, b, 0.5)
	if !approx(GreatCircleDist(a, mid), GreatCircleDist(mid, b), 1) {
		t.Errorf("midpoint not equidistant")
	}
}

func TestGreatCirclePointsMonotone(t *testing.T) {
	a := LatLon{0, 0}
	b := LatLon{0, 120}
	pts := GreatCirclePoints(a, b, 12)
	if len(pts) != 13 {
		t.Fatalf("len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		step := GreatCircleDist(pts[i-1], pts[i])
		want := GreatCircleDist(a, b) / 12
		if !approx(step, want, 1) {
			t.Fatalf("uneven step %d: %v vs %v", i, step, want)
		}
	}
}

// elevationAngle is the oracle TestCoverageElevationConsistency checks
// CoverageAngularRadius against: the elevation of a satellite at ECEF
// position sat as seen from ground point g, in radians (negative below the
// local horizon).
func elevationAngle(g LatLon, sat Vec3) float64 {
	gp := g.ToECEF(0)
	return math.Pi/2 - gp.Unit().AngleTo(sat.Sub(gp).Unit())
}

func TestElevationAngle(t *testing.T) {
	g := LatLon{0, 0}
	// Satellite directly overhead: elevation π/2.
	sat := g.ToECEF(550e3)
	if el := elevationAngle(g, sat); !approx(el, math.Pi/2, 1e-9) {
		t.Errorf("overhead el = %v", el)
	}
	// Satellite on the horizon plane (90° away at same altitude): negative.
	sat2 := LatLon{0, 90}.ToECEF(550e3)
	if el := elevationAngle(g, sat2); el > 0 {
		t.Errorf("far satellite visible: el=%v", el)
	}
}

func TestCoverageAngularRadius(t *testing.T) {
	// At 550 km and 25° min elevation, coverage radius ≈ 8.6°
	// (standard Starlink-like cell geometry).
	lam := CoverageAngularRadius(550e3, Deg2Rad(25))
	if deg := Rad2Deg(lam); deg < 7 || deg > 10.5 {
		t.Errorf("coverage radius at 550km/25° = %v°", deg)
	}
	// Higher altitude covers more; higher elevation covers less.
	if CoverageAngularRadius(1200e3, Deg2Rad(25)) <= lam {
		t.Error("higher altitude should widen coverage")
	}
	if CoverageAngularRadius(550e3, Deg2Rad(40)) >= lam {
		t.Error("higher min elevation should shrink coverage")
	}
}

func TestCoverageElevationConsistency(t *testing.T) {
	// A ground point exactly λ away from the sub-satellite point must see the
	// satellite at exactly the minimum elevation.
	alt := 700e3
	el := Deg2Rad(30)
	lam := CoverageAngularRadius(alt, el)
	g := LatLon{0, 0}
	sub := LatLon{0, Rad2Deg(lam)}
	sat := sub.ToECEF(alt)
	got := elevationAngle(g, sat)
	if !approx(got, el, 1e-9) {
		t.Errorf("elevation at coverage edge = %v°, want %v°", Rad2Deg(got), Rad2Deg(el))
	}
}

func TestLineOfSight(t *testing.T) {
	a := LatLon{0, 0}.ToECEF(550e3)
	b := LatLon{0, 20}.ToECEF(550e3)
	if !LineOfSight(a, b, 80e3) {
		t.Error("nearby satellites should see each other")
	}
	// Antipodal satellites are blocked by the Earth.
	c := LatLon{0, 180}.ToECEF(550e3)
	if LineOfSight(a, c, 80e3) {
		t.Error("antipodal satellites must be occluded")
	}
	// Same point.
	if !LineOfSight(a, a, 80e3) {
		t.Error("coincident satellites above surface should have LOS")
	}
}
