package testground

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/obs/flightrec"
)

// ChaosReportFile is the campaign's canonical report artifact name.
const ChaosReportFile = "chaos-report.json"

// scenarioFor resolves a virtual-mode manifest into a chaos scenario:
// either a named built-in (with optional overrides) or one composed
// from the manifest's fault pool.
func scenarioFor(m *Manifest) (chaos.Scenario, error) {
	var s chaos.Scenario
	if m.Scenario != "" {
		var err error
		s, err = chaos.ScenarioByName(m.Scenario)
		if err != nil {
			return s, err
		}
	} else {
		s = chaos.Scenario{Name: m.Name, Rounds: 3}
		for _, f := range m.Faults {
			s.Faults = append(s.Faults, chaos.FaultKind(f.Kind))
		}
	}
	if m.Rounds > 0 {
		s.Rounds = m.Rounds
	}
	if m.SurgeFactor > 0 {
		s.SurgeFactor = m.SurgeFactor
	}
	if m.SLO != "" {
		s.SLO = m.SLO
	}
	return s, nil
}

// RunVirtual executes a virtual-mode plan: the manifest drives the
// in-process chaos engine on a virtual clock, the campaign's canonical
// report becomes an artifact, and the scored RunReport is derived from
// it. Same manifest + seed → byte-identical report.json.
func RunVirtual(m *Manifest, dir string) (*RunReport, error) {
	if m.Mode != ModeVirtual {
		return nil, fmt.Errorf("testground: RunVirtual on a %q-mode manifest", m.Mode)
	}
	s, err := scenarioFor(m)
	if err != nil {
		return nil, err
	}
	rep, err := chaos.Run(chaos.Campaign{
		Scenario: s,
		Seed:     m.Seed,
		Testbed: chaos.TestbedConfig{
			Sats:        m.Sats,
			CellDeg:     m.CellDeg,
			Slots:       m.Slots,
			SlotSeconds: m.SlotSeconds,
		},
		Flows:            m.Flows,
		PacketsPerWindow: m.PacketsPerWindow,
		WindowSec:        m.WindowS,
	})
	if err != nil {
		return nil, fmt.Errorf("testground: %s: %w", m.Name, err)
	}

	run := &RunReport{Plan: *m, Fleet: rollupFrom(rep.Fleet.Summary)}
	for _, rr := range rep.Rounds {
		for _, f := range rr.Faults {
			run.Faults = append(run.Faults, FaultRecord{AtS: float64(rr.Round), Kind: f})
		}
	}
	// The engine already scored the campaign with the manifest's spec
	// (scenarioFor threaded it through); adopt its verdicts rather than
	// re-deriving the sample set.
	run.SLO = append([]flightrec.RuleStatus(nil), rep.SLO...)
	for i := range run.SLO {
		run.SLO[i].EvalUS = 0
	}
	run.SLOBreached = rep.SLOBreached
	run.Passed = run.SLOBreached == 0

	if dir != "" {
		canon, err := rep.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, ChaosReportFile)
		if err := os.WriteFile(path, append(canon, '\n'), 0o644); err != nil {
			return nil, err
		}
		run.Artifacts = append(run.Artifacts, Artifact{Name: ChaosReportFile, Bytes: int64(len(canon) + 1)})
	}
	return run, nil
}
