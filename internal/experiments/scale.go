// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from this repository's implementations. Each runner
// corresponds to one table/figure; DESIGN.md carries the full index and
// EXPERIMENTS.md the paper-vs-measured record.
//
// All runners are parameterized by a Scale so the full suite runs in
// seconds at Small scale (tests, benchmarks) and approaches the paper's
// dimensions at Paper scale (cmd/tinyleo-bench -scale=paper).
package experiments

import (
	"repro/internal/chaos"
	"repro/internal/dataplane"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

// Scale bundles every size knob of the evaluation.
type Scale struct {
	Name        string
	CellDeg     float64 // geographic cell size (paper: 4° ⇒ 4,050 cells)
	Slots       int     // planning horizon slots (paper: 96 × 15 min)
	SlotSeconds float64
	SubSamples  int

	// Texture library enumeration.
	MaxP            int
	InclinationsDeg []float64
	RAANs           int
	Phases          int

	// Constellation / control-plane experiment sizing.
	ControlSats  int     // satellites in control/data-plane experiments
	ControlSlots int     // control-plane horizon slots
	ControlDt    float64 // control slot duration (s)

	Epsilon        float64 // availability target (paper: 1.0)
	RelaxedEpsilon float64 // the "flexible availability" target (paper: 0.99)

	// The exact solver stops at ILPMaxNodes branch-and-bound nodes (0 =
	// the solver's default) or after ILPBudgetSeconds of wall clock,
	// whichever comes first. A node cap gives the same incumbent on every
	// run; a wall-clock cut depends on the machine's speed.
	ILPMaxNodes      int
	ILPBudgetSeconds float64

	Parallelism int
}

// Small runs the whole suite in seconds on a laptop; the shapes of all
// results match the paper, the absolute sizes are scaled down. Its exact
// solver stops at 600 nodes, under a second on a 2-vCPU VM, so the wall
// budget is only a ceiling and Fig. 15a's ILP column is the same every run.
var Small = Scale{
	Name:             "small",
	CellDeg:          10,
	Slots:            12,
	SlotSeconds:      900,
	SubSamples:       2,
	MaxP:             1,
	InclinationsDeg:  []float64{30, 43, 53, 70, 85, -30, -53, -70},
	RAANs:            12,
	Phases:           4,
	ControlSats:      256,
	ControlSlots:     8,
	ControlDt:        300,
	Epsilon:          0.99,
	RelaxedEpsilon:   0.95,
	ILPMaxNodes:      600,
	ILPBudgetSeconds: 10,
}

// Paper approaches the paper's dimensions (4,050 cells, tens of thousands
// of candidate tracks, 96 slots). Expect minutes-to-hours per experiment.
var Paper = Scale{
	Name:             "paper",
	CellDeg:          4,
	Slots:            96,
	SlotSeconds:      900,
	SubSamples:       3,
	MaxP:             2,
	InclinationsDeg:  []float64{20, 30, 43, 53, 60, 70, 85, 97.6, -30, -53, -70, -85},
	RAANs:            36,
	Phases:           6,
	ControlSats:      1741,
	ControlSlots:     96,
	ControlDt:        900,
	Epsilon:          0.999,
	RelaxedEpsilon:   0.99,
	ILPBudgetSeconds: 120,
}

// ScaleByName resolves "small" or "paper".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "small", "":
		return Small, true
	case "paper":
		return Paper, true
	}
	return Scale{}, false
}

// Grid returns the scale's geographic grid.
func (s Scale) Grid() *geo.Grid { return geo.MustGrid(s.CellDeg) }

// LibraryConfig returns the texture library configuration.
func (s Scale) LibraryConfig() texture.Config {
	return texture.Config{
		Grid:            s.Grid(),
		Specs:           orbit.EnumerateRepeatSpecs(s.MaxP, 423e3, 1873e3),
		InclinationsDeg: s.InclinationsDeg,
		RAANs:           s.RAANs,
		Phases:          s.Phases,
		Slots:           s.Slots,
		SlotSeconds:     s.SlotSeconds,
		SubSamples:      s.SubSamples,
		Parallelism:     s.Parallelism,
	}
}

// ScenarioOptions returns demand generation options aligned to the scale.
func (s Scale) ScenarioOptions() demand.ScenarioOptions {
	return demand.ScenarioOptions{
		Grid:        s.Grid(),
		Slots:       s.Slots,
		SlotSeconds: s.SlotSeconds,
	}
}

// testbedConfig maps a Scale onto the one system under test
// (chaos.NewTestbed); the emulated links keep the testbed's deliberately
// narrow campaign defaults.
func (s Scale) testbedConfig() chaos.TestbedConfig {
	return chaos.TestbedConfig{
		Sats:        s.ControlSats,
		CellDeg:     s.CellDeg,
		Slots:       s.ControlSlots,
		SlotSeconds: s.ControlDt,
	}
}

// newTestbed builds the system under test of the control- and data-plane
// figures: the Scale-sized testbed with the paper's 200 Gbps laser ISLs.
func newTestbed(scale Scale) (*chaos.Testbed, error) {
	cfg := scale.testbedConfig()
	cfg.ISLRateBps, cfg.QueueLimit = dataplane.ISLRateBpsDefault, 4096
	return chaos.NewTestbed(cfg)
}

// BuildLibrary builds the texture library (cached per scale by callers).
func (s Scale) BuildLibrary() (*texture.Library, error) {
	return texture.Build(s.LibraryConfig())
}
