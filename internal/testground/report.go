package testground

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
)

// ReportFile is the scored report's file name inside a run directory.
const ReportFile = "report.json"

// MetricsFile is the controller's /metrics.json document, fleet rollup
// included, as it stood when the controller exited (its -metrics-out):
// what a run is scored from.
const MetricsFile = "ctl-metrics.json"

// Artifact is one collected per-run file.
type Artifact struct {
	// Name is the path relative to the run directory.
	Name string `json:"name"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes,omitempty"`
}

// FaultRecord is one injected fault as it actually happened.
type FaultRecord struct {
	// AtS is the scheduled injection time (seconds after the controller
	// reported every agent registered).
	AtS float64 `json:"at_s"`
	// Kind / Agent echo the manifest's FaultSpec.
	Kind  string `json:"kind"`
	Agent int    `json:"agent"`
	// Err records an injection that could not be applied (e.g. the
	// target already exited); empty means the signal was delivered.
	Err string `json:"err,omitempty"`
}

// RunReport is a campaign's scored outcome: the resolved plan, what was
// broken when, the fleet health rollup, the SLO verdicts, and the
// artifact inventory.
type RunReport struct {
	// Plan is the manifest after FillDefaults — the run's full input.
	Plan Manifest `json:"plan"`
	// Faults is the schedule as executed.
	Faults []FaultRecord `json:"faults,omitempty"`
	// Fleet is the end-of-run constellation health rollup:
	// fleet.Summarize over MetricsFile.
	Fleet *fleet.Summary `json:"fleet,omitempty"`

	// SLO is the rule evaluation the run is scored with; Passed is
	// SLOBreached == 0 and the run completing without orchestration
	// errors.
	SLO         []flightrec.RuleStatus `json:"slo"`
	SLOBreached int                    `json:"slo_breached"`
	Passed      bool                   `json:"passed"`
	// Err records an orchestration failure the run survived well enough
	// to still produce a report (controller crash, missing metrics);
	// non-empty forces Passed false.
	Err string `json:"err,omitempty"`

	// Artifacts inventories the run directory.
	Artifacts []Artifact `json:"artifacts,omitempty"`

	// WallElapsedMS is the run's wall-clock duration.
	WallElapsedMS float64 `json:"wall_elapsed_ms,omitempty"`
}

// Score judges the plan's SLO rules over the given samples with
// flightrec.Score, filling SLO, SLOBreached, and Passed: a rule whose
// series the run never produced fails.
func (r *RunReport) Score(samples []obs.Sample) error {
	rules, err := flightrec.ParseRules(r.Plan.SLO)
	if err != nil {
		return err
	}
	r.SLO, r.SLOBreached = flightrec.Score(rules, samples)
	r.Passed = r.SLOBreached == 0
	return nil
}

// WriteFile writes the scored report into dir.
func (r *RunReport) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, ReportFile)
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadReportFile loads a scored report back (CI diffs and tests).
func ReadReportFile(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
