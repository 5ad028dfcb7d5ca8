package orbit

import (
	"math"

	"repro/internal/geom"
)

// ISLParams captures the physical constraints on laser inter-satellite
// links. The defaults mirror Starlink's public numbers used in the paper's
// evaluation (§6.1): 200 Gbps per ISL, 3 ISL terminals per satellite.
type ISLParams struct {
	// MaxRange is the maximum laser link distance in meters (0 = unlimited).
	MaxRange float64
	// GrazingMargin is the minimum clearance of the beam above the Earth's
	// surface, meters, to avoid atmospheric attenuation.
	GrazingMargin float64
}

// DefaultISLParams is a Starlink-like configuration: ~5,000 km max range,
// 80 km atmospheric grazing margin.
var DefaultISLParams = ISLParams{MaxRange: 5000e3, GrazingMargin: 80e3}

// Visible reports whether two satellites at ECI positions a and b can
// establish an ISL under p.
func (p ISLParams) Visible(a, b geom.Vec3) bool {
	if p.MaxRange > 0 && a.Dist(b) > p.MaxRange {
		return false
	}
	return geom.LineOfSight(a, b, p.GrazingMargin)
}

// ISLLifetime estimates how long (seconds) an ISL between satellites on
// orbits ea and eb, starting at time t0, will remain established under p.
// It advances in steps of dt until visibility is lost or horizon elapses.
// This is the paper's τ_{s,s'} used by the MPC's stable matching (§4.2).
func ISLLifetime(ea, eb Elements, t0, horizon, dt float64, p ISLParams) float64 {
	if !p.Visible(ea.PositionECI(t0), eb.PositionECI(t0)) {
		return 0
	}
	for t := dt; t <= horizon; t += dt {
		if !p.Visible(ea.PositionECI(t0+t), eb.PositionECI(t0+t)) {
			return t
		}
	}
	return horizon
}

// CoverageParams captures a satellite's user-facing radio footprint.
type CoverageParams struct {
	// MinElevation is the minimum elevation angle (radians) at which a
	// ground terminal can use the satellite. Starlink operates at 25°.
	MinElevation float64
}

// DefaultCoverageParams uses the 25° minimum elevation of operational
// Starlink service.
var DefaultCoverageParams = CoverageParams{MinElevation: geom.Deg2Rad(25)}

// Covers reports whether a satellite on orbit e covers ground point g at
// time t.
func (cp CoverageParams) Covers(e Elements, t float64, g geom.LatLon) bool {
	lam := geom.CoverageAngularRadius(e.Altitude(), cp.MinElevation)
	sub := e.SubSatellitePoint(t)
	return geom.CentralAngle(sub, g) <= lam
}

// FootprintRadius returns the Earth-central angular radius (radians) of the
// footprint of a satellite at altitude alt under cp.
func (cp CoverageParams) FootprintRadius(alt float64) float64 {
	return geom.CoverageAngularRadius(alt, cp.MinElevation)
}

// PropagationDelay returns the one-way speed-of-light delay between two
// positions, in seconds.
func PropagationDelay(a, b geom.Vec3) float64 {
	return a.Dist(b) / geom.C
}

// OrbitalVelocity returns the circular orbital speed (m/s) at altitude alt.
func OrbitalVelocity(alt float64) float64 {
	return math.Sqrt(geom.EarthMu / (geom.EarthRadius + alt))
}
