package chaos

import "fmt"

// FaultKind enumerates the injectable failure modes.
type FaultKind string

const (
	// FaultISLDown fails a compiled inter-cell ISL (hard failure the MPC
	// must repair).
	FaultISLDown FaultKind = "isl_down"
	// FaultFlapStorm attaches a stochastic loss storm to an ISL for one
	// measurement window (the paper's solar-storm motivation, §4.3).
	FaultFlapStorm FaultKind = "flap_storm"
	// FaultSatCrash crashes a satellite: all its ISLs go down and its
	// southbound agent terminates (commands toward it fail fast).
	FaultSatCrash FaultKind = "sat_crash"
	// FaultConnDrop severs a southbound agent's TCP session; the agent
	// reconnects with backoff and is re-synced by a snapshot.
	FaultConnDrop FaultKind = "conn_drop"
	// FaultBlackhole wedges an agent: it stays connected but stops
	// processing commands for a round, exercising ack timeout and the
	// unreachable→failed-satellite degradation path.
	FaultBlackhole FaultKind = "blackhole"
	// FaultDemandSurge multiplies the round's offered load on a subset of
	// flows (regional surge), stressing queues rather than topology.
	FaultDemandSurge FaultKind = "demand_surge"
)

// Scenario is one named fault composition.
type Scenario struct {
	// Name identifies the scenario in reports and -chaos-scenario.
	Name string
	// Rounds is the number of fault→measure→repair→measure cycles.
	Rounds int
	// Faults is the pool the engine draws from each round (one fault per
	// entry per round, candidates permitting).
	Faults []FaultKind
	// SurgeFactor multiplies per-flow load during a demand surge (≥2).
	SurgeFactor int
	// SLO is the flight-recorder rule spec the campaign is scored with
	// (see flightrec.ParseRules); empty uses DefaultSLO.
	SLO string
}

// DefaultSLO is the campaign scoring spec: enforcement availability,
// end-to-end delivery, and p99 recovery (ms, over the engine-computed
// gauge) under fault load.
const DefaultSLO = "availability>=0.60,tinyleo_chaos_delivery_ratio>=0.50,tinyleo_chaos_recovery_p99_ms<=2000"

// Scenarios returns the built-in scenario table, in the order campaigns
// run and report them.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:   "baseline",
			Rounds: 3,
			Faults: nil, // no faults: the control sanity run
			SLO:    "availability>=0.95,tinyleo_chaos_delivery_ratio>=0.95",
		},
		{
			Name:   "isl-storm",
			Rounds: 4,
			Faults: []FaultKind{FaultISLDown, FaultFlapStorm},
		},
		{
			Name:   "agent-crash",
			Rounds: 4,
			Faults: []FaultKind{FaultSatCrash, FaultBlackhole},
		},
		{
			Name:   "conn-flap",
			Rounds: 4,
			Faults: []FaultKind{FaultConnDrop, FaultConnDrop},
		},
		{
			Name:        "surge",
			Rounds:      3,
			Faults:      []FaultKind{FaultDemandSurge},
			SurgeFactor: 8,
		},
		{
			Name:        "mixed",
			Rounds:      5,
			Faults:      []FaultKind{FaultISLDown, FaultConnDrop, FaultBlackhole, FaultDemandSurge},
			SurgeFactor: 4,
		},
	}
}

// ScenarioByName resolves a built-in scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q", name)
}

// Event is one entry in the campaign's deterministic event log. Times are
// netem sim seconds; there is no wall-clock anywhere in an Event.
type Event struct {
	Round   int      `json:"round"`
	SimTime float64  `json:"sim_t"`
	Type    string   `json:"type"`
	Attrs   []string `json:"attrs,omitempty"` // flat key/value pairs, emission order
}

// Attr returns the value of the named attribute, or "".
func (e *Event) Attr(key string) string {
	for i := 0; i+1 < len(e.Attrs); i += 2 {
		if e.Attrs[i] == key {
			return e.Attrs[i+1]
		}
	}
	return ""
}
