package geom

import "math"

// LatLon is a geodetic coordinate on the spherical Earth, in degrees.
// Longitude is normalized to [-180, 180).
type LatLon struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180)
}

// NormalizeLon maps any longitude in degrees into [-180, 180).
func NormalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

// NormalizeAngle maps any angle in radians into [-π, π).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a+math.Pi, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a - math.Pi
}

// ToUnit converts a LatLon to a unit vector in ECEF.
func (p LatLon) ToUnit() Vec3 {
	lat, lon := Deg2Rad(p.Lat), Deg2Rad(p.Lon)
	cl := math.Cos(lat)
	return Vec3{cl * math.Cos(lon), cl * math.Sin(lon), math.Sin(lat)}
}

// ToECEF converts a LatLon at altitude alt (meters above the surface) to an
// ECEF position vector.
func (p LatLon) ToECEF(alt float64) Vec3 {
	return p.ToUnit().Scale(EarthRadius + alt)
}

// FromUnit converts a (not necessarily unit) ECEF vector to LatLon.
func FromUnit(v Vec3) LatLon {
	u := v.Unit()
	lat := Rad2Deg(math.Asin(clamp(u.Z, -1, 1)))
	lon := Rad2Deg(math.Atan2(u.Y, u.X))
	return LatLon{Lat: lat, Lon: NormalizeLon(lon)}
}

// CentralAngle returns the great-circle central angle between p and q in
// radians.
func CentralAngle(p, q LatLon) float64 {
	return p.ToUnit().AngleTo(q.ToUnit())
}

// GreatCircleDist returns the surface distance between p and q in meters.
func GreatCircleDist(p, q LatLon) float64 {
	return EarthRadius * CentralAngle(p, q)
}

// Intermediate returns the point a fraction f ∈ [0,1] of the way along the
// great circle from p to q (spherical linear interpolation).
func Intermediate(p, q LatLon, f float64) LatLon {
	a, b := p.ToUnit(), q.ToUnit()
	ω := a.AngleTo(b)
	if ω < 1e-12 {
		return p
	}
	s := math.Sin(ω)
	v := a.Scale(math.Sin((1-f)*ω) / s).Add(b.Scale(math.Sin(f*ω) / s))
	return FromUnit(v)
}

// GreatCirclePoints samples n+1 points (inclusive of both endpoints) along
// the great circle from p to q.
func GreatCirclePoints(p, q LatLon, n int) []LatLon {
	if n < 1 {
		n = 1
	}
	pts := make([]LatLon, 0, n+1)
	for i := 0; i <= n; i++ {
		pts = append(pts, Intermediate(p, q, float64(i)/float64(n)))
	}
	return pts
}

// CoverageAngularRadius returns the maximum Earth-central angle λ (radians)
// between a satellite's sub-satellite point and a ground point such that the
// ground point sees the satellite above elevation el (radians), for a
// satellite at altitude alt meters.
//
// Geometry: sin(η) = Re·cos(el)/(Re+alt) where η is the nadir angle, and
// λ = π/2 − el − η.
func CoverageAngularRadius(alt, el float64) float64 {
	sinEta := EarthRadius * math.Cos(el) / (EarthRadius + alt)
	eta := math.Asin(clamp(sinEta, -1, 1))
	return math.Pi/2 - el - eta
}

// LineOfSight reports whether two ECEF/ECI positions can see each other
// without the Earth (plus an atmospheric grazing margin, in meters)
// obstructing the segment between them.
func LineOfSight(a, b Vec3, margin float64) bool {
	// Minimum distance from Earth's center to segment ab.
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return a.Norm() > EarthRadius+margin
	}
	t := -a.Dot(ab) / den
	t = clamp(t, 0, 1)
	closest := a.Add(ab.Scale(t))
	return closest.Norm() > EarthRadius+margin
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
