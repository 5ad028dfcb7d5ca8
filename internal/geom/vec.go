// Package geom provides the geometric substrate for TinyLEO: 3-vectors,
// rotation matrices, geodetic/Cartesian conversions on a spherical Earth,
// great-circle math, and spherical point-in-polygon tests.
//
// Conventions:
//   - ECI (Earth-centered inertial) and ECEF (Earth-centered Earth-fixed)
//     frames are right-handed with +Z through the north pole.
//   - Latitudes and longitudes are in degrees in public APIs (matching the
//     paper's tables) and radians in the low-level math.
//   - Distances are in meters unless a name says otherwise.
package geom

import "math"

// Physical constants shared across the toolkit. The paper's orbital numbers
// (Table 1) are reproduced with these values to within ~1%.
const (
	// EarthRadius is the mean spherical Earth radius in meters.
	EarthRadius = 6371.0e3
	// EarthMu is the geocentric gravitational constant (m^3/s^2).
	EarthMu = 3.986004418e14
	// SiderealDay is the Earth's rotation period relative to the fixed
	// stars, in seconds. Earth-repeat ground tracks repeat after p sidereal
	// days and q orbital revolutions.
	SiderealDay = 86164.0905
	// C is the speed of light in vacuum (m/s), used for propagation delay.
	C = 299792458.0
)

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// Vec3 is a Cartesian 3-vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v/|v|. The zero vector is returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Dist returns |v - w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// DistSq returns |v - w|² without the square root, for range comparisons
// on hot paths (compare against the squared threshold).
func (v Vec3) DistSq(w Vec3) float64 {
	d := v.Sub(w)
	return d.Dot(d)
}

// AngleTo returns the angle between v and w in radians, in [0, π].
// It is numerically stable near 0 and π (atan2 formulation).
func (v Vec3) AngleTo(w Vec3) float64 {
	return math.Atan2(v.Cross(w).Norm(), v.Dot(w))
}

// RotZ rotates v by angle a (radians) about the +Z axis.
func (v Vec3) RotZ(a float64) Vec3 {
	s, c := math.Sincos(a)
	return Vec3{c*v.X - s*v.Y, s*v.X + c*v.Y, v.Z}
}

// RotX rotates v by angle a (radians) about the +X axis.
func (v Vec3) RotX(a float64) Vec3 {
	s, c := math.Sincos(a)
	return Vec3{v.X, c*v.Y - s*v.Z, s*v.Y + c*v.Z}
}
