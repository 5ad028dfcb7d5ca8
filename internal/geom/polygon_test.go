package geom

import "testing"

func TestPolygonContainsSquare(t *testing.T) {
	sq := Polygon{{0, 0}, {0, 10}, {10, 10}, {10, 0}}
	in := []LatLon{{5, 5}, {1, 1}, {9, 9}}
	out := []LatLon{{-1, 5}, {5, 11}, {11, 5}, {5, -1}, {50, 50}}
	for _, p := range in {
		if !sq.Contains(p) {
			t.Errorf("%v should be inside", p)
		}
	}
	for _, p := range out {
		if sq.Contains(p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

func TestPolygonAntimeridian(t *testing.T) {
	// Polygon spanning the antimeridian written with lon > 180.
	poly := Polygon{{-10, 170}, {-10, 190}, {10, 190}, {10, 170}}
	if !poly.Contains(LatLon{0, 175}) {
		t.Error("175E should be inside")
	}
	if !poly.Contains(LatLon{0, -175}) {
		t.Error("175W (unwrapped 185) should be inside")
	}
	if poly.Contains(LatLon{0, 160}) {
		t.Error("160E should be outside")
	}
	if poly.Contains(LatLon{0, -160}) {
		t.Error("160W should be outside")
	}
}

func TestPolygonConcave(t *testing.T) {
	// A "U" shape on the lat/lon plane: two vertical arms at lon [0,4] and
	// [6,10] joined by a base at lat [0,2]; the notch is lat>2, lon in (4,6).
	u := Polygon{
		{0, 0}, {0, 10}, {10, 10}, {10, 6}, {2, 6}, {2, 4}, {10, 4}, {10, 0},
	}
	if !u.Contains(LatLon{5, 1}) {
		t.Error("left arm point should be inside")
	}
	if !u.Contains(LatLon{5, 9}) {
		t.Error("right arm point should be inside")
	}
	if !u.Contains(LatLon{1, 5}) {
		t.Error("base point should be inside")
	}
	if u.Contains(LatLon{5, 5}) {
		t.Error("notch point should be outside")
	}
}

func TestPolygonDegenerate(t *testing.T) {
	if (Polygon{}).Contains(LatLon{0, 0}) {
		t.Error("empty polygon contains nothing")
	}
	if (Polygon{{0, 0}, {1, 1}}).Contains(LatLon{0.5, 0.5}) {
		t.Error("2-vertex polygon contains nothing")
	}
}
