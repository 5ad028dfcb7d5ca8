package demand

import (
	"math"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/texture"
)

// ScenarioOptions configures scenario generation.
type ScenarioOptions struct {
	Grid        *geo.Grid
	Slots       int
	SlotSeconds float64
	// TotalSatUnits is the peak-hour global demand in satellite units. The
	// paper scales the Starlink customer distribution by Starlink's total
	// radio-access capacity (652 Tbps from 6,793 satellites ⇒ 6,793
	// satellite units at 100 Mbps/user). Zero selects that default.
	TotalSatUnits float64
	// Diurnal enables the Figure-3b temporal dynamics; when nil the demand
	// is static at its peak value everywhere (the paper's "static demands"
	// baseline in Figure 15d).
	Diurnal *DiurnalModel
	// RuralWeight is the fraction of the city weight budget spread as a
	// rural background on land (§2.2: rural users need LEO more; 0.25 by
	// default inside StarlinkCustomers).
	RuralWeight float64
}

func (o *ScenarioOptions) fillDefaults() {
	if o.Grid == nil {
		o.Grid = geo.DefaultGrid()
	}
	if o.Slots <= 0 {
		o.Slots = 96
	}
	if o.SlotSeconds <= 0 {
		o.SlotSeconds = 900
	}
	if o.TotalSatUnits <= 0 {
		o.TotalSatUnits = 6793
	}
	if o.RuralWeight == 0 {
		o.RuralWeight = 0.1
	}
}

// StarlinkCustomers synthesizes the Figure 13a scenario: a long-tail global
// customer distribution concentrated on cities, with optional diurnal
// dynamics. At the peak slot the total demand equals TotalSatUnits.
func StarlinkCustomers(opt ScenarioOptions) *Demand {
	opt.fillDefaults()
	d := New(opt.Grid, opt.Slots, opt.SlotSeconds, "starlink-customers")
	w, tz := cellWeightsFromCities(opt.Grid, opt.RuralWeight)
	totalW := 0.0
	for _, v := range w {
		totalW += v
	}
	if totalW == 0 {
		return d
	}
	m := opt.Grid.NumCells()
	for t := 0; t < opt.Slots; t++ {
		utc := float64(t) * opt.SlotSeconds
		for i := 0; i < m; i++ {
			if w[i] == 0 {
				continue
			}
			act := 1.0
			if opt.Diurnal != nil {
				cellTZ := tz[i]
				if math.IsNaN(cellTZ) {
					cellTZ = lonTZ(opt.Grid.Center(i).Lon)
				}
				act = opt.Diurnal.Activity(LocalHour(utc, cellTZ))
			}
			d.Y[t*m+i] = opt.TotalSatUnits * w[i] / totalW * act
		}
	}
	return d
}

// Region is a named backbone endpoint for the Internet-backbone scenario.
type Region struct {
	Name string
	Loc  geom.LatLon
}

// BackboneRegions approximates the region nodes of the TeleGeography global
// Internet map the paper uses (Figure 13b).
var BackboneRegions = []Region{
	{"us-east", geom.LatLon{Lat: 40, Lon: -74}},
	{"us-west", geom.LatLon{Lat: 37, Lon: -122}},
	{"brazil", geom.LatLon{Lat: -23, Lon: -46}},
	{"argentina", geom.LatLon{Lat: -34, Lon: -58}},
	{"west-europe", geom.LatLon{Lat: 50, Lon: 2}},
	{"south-europe", geom.LatLon{Lat: 40, Lon: 14}},
	{"north-europe", geom.LatLon{Lat: 59, Lon: 18}},
	{"west-africa", geom.LatLon{Lat: 6, Lon: 3}},
	{"south-africa", geom.LatLon{Lat: -33, Lon: 18}},
	{"east-africa", geom.LatLon{Lat: -1, Lon: 36}},
	{"middle-east", geom.LatLon{Lat: 25, Lon: 55}},
	{"south-asia", geom.LatLon{Lat: 19, Lon: 72}},
	{"southeast-asia", geom.LatLon{Lat: 1, Lon: 103}},
	{"east-asia", geom.LatLon{Lat: 35, Lon: 139}},
	{"china", geom.LatLon{Lat: 31, Lon: 121}},
	{"oceania", geom.LatLon{Lat: -33, Lon: 151}},
}

// BackboneODGbps is a coarse inter-region capacity matrix (Gbps) shaped
// after the public TeleGeography map: trans-Atlantic and intra-Asia routes
// dominate; southern-hemisphere links are thinner. Entries are symmetric
// aggregates; only listed pairs carry demand.
var BackboneODGbps = map[[2]string]float64{
	{"us-east", "west-europe"}:       1200,
	{"us-east", "south-europe"}:      400,
	{"us-west", "east-asia"}:         800,
	{"us-west", "china"}:             400,
	{"us-west", "oceania"}:           300,
	{"us-east", "brazil"}:            500,
	{"brazil", "argentina"}:          200,
	{"brazil", "west-europe"}:        250,
	{"brazil", "west-africa"}:        100,
	{"west-europe", "south-europe"}:  600,
	{"west-europe", "north-europe"}:  500,
	{"west-europe", "middle-east"}:   400,
	{"west-europe", "west-africa"}:   250,
	{"west-europe", "south-africa"}:  200,
	{"south-europe", "middle-east"}:  300,
	{"middle-east", "south-asia"}:    450,
	{"middle-east", "east-africa"}:   150,
	{"south-asia", "southeast-asia"}: 500,
	{"southeast-asia", "east-asia"}:  700,
	{"southeast-asia", "china"}:      500,
	{"southeast-asia", "oceania"}:    350,
	{"east-asia", "china"}:           600,
	{"east-asia", "us-east"}:         300,
	{"south-africa", "east-africa"}:  100,
	{"us-east", "us-west"}:           900,
}

// regionByName returns the region with the given name, or panics (the OD
// matrix is embedded and validated by tests).
func regionByName(name string) Region {
	for _, r := range BackboneRegions {
		if r.Name == name {
			return r
		}
	}
	panic("demand: unknown backbone region " + name)
}

// InternetBackbone synthesizes Figure 13b: LEO as a submarine-cable backup
// retaining the same inter-regional capacity. Each O–D pair's traffic is
// routed along its great circle and aggregated hop-by-hop onto the cells it
// crosses (§6.3's construction of y from origin-destination intents); the
// per-cell demand is traffic divided by per-satellite transit capacity.
func InternetBackbone(opt ScenarioOptions) *Demand {
	opt.fillDefaults()
	d := New(opt.Grid, opt.Slots, opt.SlotSeconds, "internet-backbone")
	m := opt.Grid.NumCells()
	perCell := make([]float64, m)
	// Per-satellite transit capacity: one ISL in, one out ⇒ one full ISL
	// worth of transit (200 Gbps).
	transitGbps := StarlinkV2Mini.ISLGbps
	for od, gbps := range BackboneODGbps {
		a, b := regionByName(od[0]), regionByName(od[1])
		// Sample the great circle densely enough to touch every cell.
		steps := int(geom.GreatCircleDist(a.Loc, b.Loc)/(111e3*opt.Grid.CellSizeDeg()/2)) + 2
		seen := map[int]bool{}
		for _, p := range geom.GreatCirclePoints(a.Loc, b.Loc, steps) {
			id := opt.Grid.CellOf(p)
			if !seen[id] {
				seen[id] = true
				perCell[id] += gbps / transitGbps
			}
		}
	}
	for t := 0; t < opt.Slots; t++ {
		copy(d.Y[t*m:(t+1)*m], perCell)
	}
	return d
}

// LatinAmericaBounds is the coarse regional box of Figure 13c.
var LatinAmericaBounds = struct {
	MinLat, MaxLat, MinLon, MaxLon float64
}{MinLat: -56, MaxLat: 33, MinLon: -118, MaxLon: -34}

// LatinAmerica synthesizes Figure 13c: the Starlink-customer demand
// restricted to Latin America (a small ISP's regional network, §7).
func LatinAmerica(opt ScenarioOptions) *Demand {
	full := StarlinkCustomers(opt)
	d := New(full.Grid, full.Slots, full.SlotSeconds, "latin-america")
	m := full.Grid.NumCells()
	b := LatinAmericaBounds
	for i := 0; i < m; i++ {
		c := full.Grid.Center(i)
		if c.Lat < b.MinLat || c.Lat > b.MaxLat || c.Lon < b.MinLon || c.Lon > b.MaxLon {
			continue
		}
		for t := 0; t < full.Slots; t++ {
			d.Y[t*m+i] = full.Y[t*m+i]
		}
	}
	return d
}

// CalibrateToSupply rescales the demand (in place) to the largest multiple
// at which `availability` of its total is still satisfiable by the given
// unfolded supply vector — i.e. the "same demand" anchor used to compare
// constellations of different shapes. Returns the scale factor applied. It
// panics unless supply and the demand have one length.
func (d *Demand) CalibrateToSupply(supply []float64, availability float64) float64 {
	satisfied := func(scale float64) float64 {
		sat, tot := texture.SatisfiedScaled(supply, d.Y, scale)
		if tot == 0 {
			return 1
		}
		return sat / tot
	}
	lo, hi := 0.0, 1.0
	// Grow hi until the availability target breaks (or a sane cap).
	for satisfied(hi) >= availability && hi < 1e6 {
		lo = hi
		hi *= 2
	}
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if satisfied(mid) >= availability {
			lo = mid
		} else {
			hi = mid
		}
	}
	d.Scale(lo)
	return lo
}
