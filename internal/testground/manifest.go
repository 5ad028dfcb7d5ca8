package testground

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/obs/flightrec"
)

// Fault kinds: signals sent to a target agent process.
const (
	// FaultKill SIGKILLs the target agent process: no flush, no goodbye —
	// the controller's staleness ladder is the only witness.
	FaultKill = "kill"
	// FaultTerm SIGTERMs the target agent: a graceful shutdown that still
	// flushes its flight recording and trace.
	FaultTerm = "term"
	// FaultStop SIGSTOPs the target agent: the process wedges (stops
	// reporting and acking) but its TCP session stays open.
	FaultStop = "stop"
	// FaultCont SIGCONTs a previously stopped agent, resuming it.
	FaultCont = "cont"
)

// DefaultExecSLO scores a run that declares no slo: every agent reported
// at least once and nothing on the wire was malformed.
const DefaultExecSLO = "tinyleo_fleet_reports_total>=1,tinyleo_fleet_decode_errors_total<=0"

// FaultSpec schedules one fault.
type FaultSpec struct {
	// AtS is when to inject, in seconds after the controller reported
	// every agent registered.
	AtS float64 `json:"at_s,omitempty"`
	// Kind is the signal: kill, term, stop or cont.
	Kind string `json:"kind"`
	// Agent is the target agent index.
	Agent int `json:"agent,omitempty"`
}

// Manifest is a declarative test plan: what to launch, how big, what to
// break when, and what "good" means. Zero fields take defaults
// (FillDefaults documents each); Validate rejects what cannot run.
type Manifest struct {
	// Name identifies the plan in reports and run directories (required).
	Name string `json:"name"`

	// Agents is the satellite agent count (default 3).
	Agents int `json:"agents,omitempty"`
	// Slots is the control slots the controller compiles and enforces
	// (default 2).
	Slots int `json:"slots,omitempty"`
	// SlotSeconds is the control slot duration in orbital seconds
	// (default 300).
	SlotSeconds float64 `json:"slot_seconds,omitempty"`

	// RunForS is how long each agent process stays up if not signaled
	// (default 120; the runner terminates survivors once the controller
	// exits).
	RunForS float64 `json:"run_for_s,omitempty"`
	// HoldS keeps the controller alive after its last slot so the fleet
	// staleness ladder can observe scheduled faults (default: last fault
	// time + FleetSilentS + 3, or 2 with no faults).
	HoldS float64 `json:"hold_s,omitempty"`
	// FleetIntervalMS is the agents' telemetry report interval
	// (default 200).
	FleetIntervalMS int `json:"fleet_interval_ms,omitempty"`
	// FleetLagS / FleetSilentS are the controller's staleness thresholds
	// (defaults 2 and 5 — tighter than interactive defaults so short
	// campaigns still walk the ladder).
	FleetLagS    float64 `json:"fleet_lag_s,omitempty"`
	FleetSilentS float64 `json:"fleet_silent_s,omitempty"`

	// Faults is the fault schedule.
	Faults []FaultSpec `json:"faults,omitempty"`
	// SLO is the flightrec rule spec the run is scored with (default
	// DefaultExecSLO).
	SLO string `json:"slo,omitempty"`
}

// FillDefaults returns a copy with every zero field defaulted. The
// defaulting rules are part of the manifest contract and golden-tested.
func (m Manifest) FillDefaults() Manifest {
	if m.Agents == 0 {
		m.Agents = 3
	}
	if m.Slots == 0 {
		m.Slots = 2
	}
	if m.SlotSeconds == 0 {
		m.SlotSeconds = 300
	}
	if m.RunForS == 0 {
		m.RunForS = 120
	}
	if m.FleetIntervalMS == 0 {
		m.FleetIntervalMS = 200
	}
	if m.FleetLagS == 0 {
		m.FleetLagS = 2
	}
	if m.FleetSilentS == 0 {
		m.FleetSilentS = 5
	}
	if m.HoldS == 0 {
		m.HoldS = 2
		if last := m.lastFaultAt(); last >= 0 {
			m.HoldS = last + m.FleetSilentS + 3
		}
	}
	if m.SLO == "" {
		m.SLO = DefaultExecSLO
	}
	return m
}

// lastFaultAt returns the latest scheduled fault time, or -1 with no
// faults.
func (m *Manifest) lastFaultAt() float64 {
	last := -1.0
	for _, f := range m.Faults {
		if f.AtS > last {
			last = f.AtS
		}
	}
	return last
}

// faultKinds is the one fault vocabulary.
var faultKinds = []string{FaultCont, FaultKill, FaultStop, FaultTerm}

// Validate checks a defaulted manifest. Call FillDefaults first (Load
// does both).
func (m *Manifest) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("testground: manifest needs a name")
	}
	if m.Agents < 1 || m.Agents > 1024 {
		return fmt.Errorf("testground: manifest %q: agents = %d out of range [1, 1024]", m.Name, m.Agents)
	}
	if m.Slots < 1 {
		return fmt.Errorf("testground: manifest %q: slots = %d, want >= 1", m.Name, m.Slots)
	}
	if m.SlotSeconds <= 0 {
		return fmt.Errorf("testground: manifest %q: slot_seconds = %g, want > 0", m.Name, m.SlotSeconds)
	}
	for i, f := range m.Faults {
		if !slices.Contains(faultKinds, f.Kind) {
			return fmt.Errorf("testground: manifest %q: fault %d: unknown fault kind %q (want %s)",
				m.Name, i, f.Kind, strings.Join(faultKinds, ", "))
		}
		if f.AtS < 0 {
			return fmt.Errorf("testground: manifest %q: fault %d: at_s = %g, want >= 0", m.Name, i, f.AtS)
		}
		if f.Agent < 0 || f.Agent >= m.Agents {
			return fmt.Errorf("testground: manifest %q: fault %d: agent %d out of range [0, %d)",
				m.Name, i, f.Agent, m.Agents)
		}
	}
	if m.SLO != "" {
		if _, err := flightrec.ParseRules(m.SLO); err != nil {
			return fmt.Errorf("testground: manifest %q: slo: %v", m.Name, err)
		}
	}
	return nil
}

// Parse decodes a JSON manifest. Unknown keys are errors, so typos fail
// loudly instead of silently running a default.
func Parse(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("testground: manifest: %v", err)
	}
	return &m, nil
}

// Load reads, defaults, and validates a manifest file (.json).
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if ext := filepath.Ext(path); ext != ".json" {
		return nil, fmt.Errorf("testground: %s: unknown manifest extension %q (want .json)", path, ext)
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	filled := m.FillDefaults()
	if err := filled.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &filled, nil
}
