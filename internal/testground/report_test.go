package testground

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestScore(t *testing.T) {
	r := &RunReport{Plan: Manifest{
		Name: "s",
		SLO:  "tinyleo_fleet_reports_total>=10,tinyleo_fleet_agents_silent<=0",
	}}
	samples := []obs.Sample{
		{Name: "tinyleo_fleet_reports_total", Kind: obs.KindCounter, Value: 40},
		{Name: "tinyleo_fleet_agents_silent", Kind: obs.KindGauge, Value: 1},
	}
	if err := r.Score(samples); err != nil {
		t.Fatalf("Score: %v", err)
	}
	if len(r.SLO) != 2 || r.SLOBreached != 1 || r.Passed {
		t.Fatalf("verdicts: breached=%d passed=%v slo=%+v", r.SLOBreached, r.Passed, r.SLO)
	}
	if r.SLO[0].Breached || !r.SLO[1].Breached {
		t.Errorf("rule verdicts inverted: %+v", r.SLO)
	}
	for _, st := range r.SLO {
		if st.EvalUS != 0 {
			t.Errorf("EvalUS must be zeroed for reproducibility: %+v", st)
		}
	}
}

// A finished run is judged on what it produced: a rule on a series the
// samples do not hold (here a misspelling) cannot be observed, so it fails
// the report instead of passing it silently.
func TestScoreFailsARuleItCannotObserve(t *testing.T) {
	r := &RunReport{Plan: Manifest{Name: "typo", SLO: "tinyleo_fleet_agents>=3,tinyleo_fleet_agent_silent<=1"}}
	samples := []obs.Sample{
		{Name: "tinyleo_fleet_agents", Kind: obs.KindGauge, Value: 3},
		{Name: "tinyleo_fleet_agents_silent", Kind: obs.KindGauge, Value: 0},
	}
	if err := r.Score(samples); err != nil {
		t.Fatalf("Score: %v", err)
	}
	if r.Passed || r.SLOBreached != 1 || r.SLO[0].Breached || !r.SLO[1].Breached || !math.IsNaN(r.SLO[1].Value) {
		t.Fatalf("verdicts: passed=%v breached=%d slo=%+v; want the misspelled rule alone breached at NaN",
			r.Passed, r.SLOBreached, r.SLO)
	}
}

func TestWriteAndReadReport(t *testing.T) {
	dir := t.TempDir()
	r := &RunReport{Plan: Manifest{Name: "w"}, Passed: true, WallElapsedMS: 5}
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if filepath.Base(path) != ReportFile {
		t.Errorf("path = %s", path)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatalf("ReadReportFile: %v", err)
	}
	if back.Plan.Name != "w" || !back.Passed || back.WallElapsedMS != 5 {
		t.Errorf("round trip: %+v", back)
	}
}

// TestInventory: the artifact walk lists run files sorted, excluding
// the report itself.
func TestInventory(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{MetricsFile, "ctl.log", ReportFile} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	arts, err := inventory(dir)
	if err != nil {
		t.Fatalf("inventory: %v", err)
	}
	var names []string
	for _, a := range arts {
		names = append(names, a.Name)
		if a.Bytes != 1 {
			t.Errorf("%s: bytes = %d", a.Name, a.Bytes)
		}
	}
	if got := strings.Join(names, ","); got != "ctl-metrics.json,ctl.log" {
		t.Errorf("inventory = %s", got)
	}
}

// TestReportJSONShape guards the report's serialized field names — the
// contract EXPERIMENTS.md documents and CI extracts.
func TestReportJSONShape(t *testing.T) {
	r := &RunReport{Plan: Manifest{Name: "shape"}.FillDefaults()}
	if err := r.Score(nil); err != nil {
		t.Fatalf("Score: %v", err)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"plan"`, `"slo"`, `"slo_breached"`, `"passed"`, `"name"`, `"agents"`} {
		if !bytes.Contains(buf, []byte(key)) {
			t.Errorf("report JSON lacks %s:\n%s", key, buf)
		}
	}
}
