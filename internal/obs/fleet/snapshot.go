package fleet

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/obs"
)

// Snapshot artifact helpers: the /fleet document as a per-run file. The
// controller writes one on exit (-fleet-out), `tinyleo-ctl fleet
// snapshot` fetches one from a live controller, and the testground
// collector reads one back to score a finished campaign.

// WriteFile writes the view as indented JSON — the same document /fleet
// serves and `tinyleo-ctl fleet snapshot` saves.
func (v *View) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteSnapshotFile dumps the aggregator's current view with WriteFile.
func (a *Aggregator) WriteSnapshotFile(path string) error {
	v := a.View()
	return v.WriteFile(path)
}

// ReadViewFile loads a snapshot written by WriteFile (or fetched from
// /fleet).
func ReadViewFile(path string) (*View, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v View
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("fleet: snapshot %s: %w", path, err)
	}
	return &v, nil
}

// Summary is the fleet-wide accounting of a view's agent rows: the one
// derivation chaos reports, testground reports and SLO scoring share.
type Summary struct {
	// Agents counts agents that reported at least once.
	Agents int `json:"agents"`
	// Reports / Bytes / Gaps are fleet-wide report accounting sums.
	Reports uint64 `json:"reports"`
	Bytes   uint64 `json:"bytes"`
	Gaps    uint64 `json:"gaps"`
	// States counts agents per health state.
	States map[string]int `json:"states"`
	// Silent lists the silent agents' IDs, ascending.
	Silent []int `json:"silent,omitempty"`
	// DecodeErrors counts reports dropped as malformed.
	DecodeErrors int64 `json:"decode_errors"`
}

// Summary condenses the view's agent rows (sorted by ID, as Agents
// returns them).
func (v *View) Summary() Summary {
	s := Summary{Agents: len(v.Agents), States: v.States, DecodeErrors: v.DecodeErrors}
	for _, a := range v.Agents {
		s.Reports += a.Reports
		s.Bytes += a.Bytes
		s.Gaps += a.Gaps
		if a.State == StateSilent {
			s.Silent = append(s.Silent, int(a.ID))
		}
	}
	return s
}

// Samples renders the summary as the tinyleo_fleet_* series a live
// aggregator exports (plus the gap count, which it does not), so a
// snapshot read back from disk is scored with the same SLO rule names a
// live run uses.
func (s Summary) Samples() []obs.Sample {
	return []obs.Sample{
		{Name: "tinyleo_fleet_agents", Kind: obs.KindGauge, Value: float64(s.Agents)},
		{Name: "tinyleo_fleet_agents_silent", Kind: obs.KindGauge, Value: float64(len(s.Silent))},
		{Name: "tinyleo_fleet_reports_total", Kind: obs.KindCounter, Value: float64(s.Reports)},
		{Name: "tinyleo_fleet_report_bytes_total", Kind: obs.KindCounter, Value: float64(s.Bytes)},
		{Name: "tinyleo_fleet_gaps_total", Kind: obs.KindCounter, Value: float64(s.Gaps)},
		{Name: "tinyleo_fleet_decode_errors_total", Kind: obs.KindCounter, Value: float64(s.DecodeErrors)},
	}
}
