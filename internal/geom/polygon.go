package geom

// Polygon is a closed polygon on the lat/lon plane (equirectangular), used
// for coarse region and continent outlines. Vertices are in degrees; the
// last vertex is implicitly connected back to the first.
//
// Longitude wraparound: polygons may use longitudes outside [-180,180) (e.g.
// 190 for -170) so that edges never span more than 180° of longitude; the
// containment test unwraps the query point accordingly.
type Polygon []LatLon

// Contains reports whether p is inside the polygon using the even-odd ray
// casting rule on the lat/lon plane. Points exactly on an edge may land on
// either side; the continent masks used by TinyLEO are coarse enough that
// this does not matter.
func (poly Polygon) Contains(p LatLon) bool {
	if len(poly) < 3 {
		return false
	}
	// Try the query longitude in its three unwrapped aliases so polygons
	// crossing the antimeridian are handled.
	for _, lon := range [3]float64{p.Lon - 360, p.Lon, p.Lon + 360} {
		if poly.containsRaw(p.Lat, lon) {
			return true
		}
	}
	return false
}

func (poly Polygon) containsRaw(lat, lon float64) bool {
	inside := false
	n := len(poly)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		yi, xi := poly[i].Lat, poly[i].Lon
		yj, xj := poly[j].Lat, poly[j].Lon
		if (yi > lat) != (yj > lat) {
			x := (xj-xi)*(lat-yi)/(yj-yi) + xi
			if lon < x {
				inside = !inside
			}
		}
	}
	return inside
}
