package testground

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// loadTestdata loads a golden plan.
func loadTestdata(t *testing.T, name string) *Manifest {
	t.Helper()
	m, err := Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return m
}

// TestRunVirtualDeterministic is the determinism contract: the same
// manifest + seed produces byte-identical scored reports and campaign
// artifacts across runs (virtual clock, no wall time anywhere).
func TestRunVirtualDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	m := loadTestdata(t, "valid-virtual.json")
	read := func(dir string) (report, chaosRep []byte) {
		t.Helper()
		rep, err := RunVirtual(m, dir)
		if err != nil {
			t.Fatalf("RunVirtual: %v", err)
		}
		if _, err := rep.WriteFile(dir); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		report, err = os.ReadFile(filepath.Join(dir, ReportFile))
		if err != nil {
			t.Fatal(err)
		}
		chaosRep, err = os.ReadFile(filepath.Join(dir, ChaosReportFile))
		if err != nil {
			t.Fatal(err)
		}
		return report, chaosRep
	}
	r1, c1 := read(t.TempDir())
	r2, c2 := read(t.TempDir())
	if !bytes.Equal(r1, r2) {
		t.Errorf("scored reports differ between identical runs:\n--- first\n%s\n--- second\n%s", r1, r2)
	}
	if !bytes.Equal(c1, c2) {
		t.Error("campaign artifacts differ between identical runs")
	}
}

// TestRunVirtualSeedMatters: a different seed must actually change the
// campaign (guards against the seed being ignored).
func TestRunVirtualSeedMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	m := loadTestdata(t, "valid-virtual.json")
	r1, err := RunVirtual(m, "")
	if err != nil {
		t.Fatalf("RunVirtual: %v", err)
	}
	reseeded := *m
	reseeded.Seed = m.Seed + 1
	r2, err := RunVirtual(&reseeded, "")
	if err != nil {
		t.Fatalf("RunVirtual reseeded: %v", err)
	}
	b1, _ := r1.CanonicalJSON()
	b2, _ := r2.CanonicalJSON()
	if bytes.Equal(b1, b2) {
		t.Error("different seeds produced identical reports")
	}
}

func TestScenarioFor(t *testing.T) {
	named := Manifest{Name: "n", Mode: ModeVirtual, Scenario: "mixed", Rounds: 2, SLO: "availability>=0.5"}.FillDefaults()
	s, err := scenarioFor(&named)
	if err != nil {
		t.Fatalf("scenarioFor: %v", err)
	}
	if s.Name != "mixed" || s.Rounds != 2 || s.SLO != "availability>=0.5" {
		t.Errorf("named scenario overrides: %+v", s)
	}
	composed := loadTestdata(t, "valid-virtual.json")
	s, err = scenarioFor(composed)
	if err != nil {
		t.Fatalf("scenarioFor composed: %v", err)
	}
	if s.Name != "golden-virtual" || s.Rounds != 2 || len(s.Faults) != 2 || s.SurgeFactor != 4 {
		t.Errorf("composed scenario: %+v", s)
	}
	if err := func() error { _, err := scenarioFor(&Manifest{Scenario: "nope"}); return err }(); err == nil {
		t.Error("unknown scenario must error")
	}
}

func TestRunVirtualRejectsExecPlan(t *testing.T) {
	m := Manifest{Name: "e"}.FillDefaults()
	if _, err := RunVirtual(&m, ""); err == nil {
		t.Error("RunVirtual on an exec plan must error")
	}
}
