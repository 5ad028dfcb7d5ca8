package testground

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLoadGoldenValid(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "valid-exec.json"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.Name != "golden-exec" {
		t.Errorf("name = %q", m.Name)
	}
	if m.Agents != 4 || m.Slots != 3 || m.SlotSeconds != 120 {
		t.Errorf("shape fields: %d %d %g", m.Agents, m.Slots, m.SlotSeconds)
	}
	want := []FaultSpec{
		{AtS: 1, Kind: FaultStop, Agent: 2},
		{AtS: 2.5, Kind: FaultCont, Agent: 2},
		{AtS: 4, Kind: FaultKill, Agent: 3},
	}
	if !reflect.DeepEqual(m.Faults, want) {
		t.Errorf("faults = %+v, want %+v", m.Faults, want)
	}
}

func TestLoadGoldenInvalid(t *testing.T) {
	cases := []struct {
		file string
		want string // substring of the error
	}{
		{"invalid-unknown-key.json", "unknown field"},
		{"invalid-fault-kind.json", "unknown fault kind"},
		// The retired virtual mode's keys are unknown keys now.
		{"invalid-mode-key.json", `unknown field "mode"`},
		{"invalid-scenario-key.json", `unknown field "scenario"`},
		// The controller flies the one testbed: there is no constellation.
		{"invalid-constellation-key.json", `unknown field "constellation"`},
		{"invalid-agent-range.json", "out of range"},
		{"invalid-slo.json", "slo"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			_, err := Load(filepath.Join("testdata", tc.file))
			if err == nil {
				t.Fatalf("Load(%s): wanted an error", tc.file)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFillDefaults pins the documented defaulting rules.
func TestFillDefaults(t *testing.T) {
	m := Manifest{Name: "d"}.FillDefaults()
	if m.Agents != 3 || m.Slots != 2 || m.SlotSeconds != 300 {
		t.Errorf("core defaults: %+v", m)
	}
	if m.RunForS != 120 || m.FleetIntervalMS != 200 || m.FleetLagS != 2 || m.FleetSilentS != 5 {
		t.Errorf("exec defaults: %+v", m)
	}
	if m.HoldS != 2 {
		t.Errorf("hold_s with no faults = %g, want 2", m.HoldS)
	}
	if m.SLO != DefaultExecSLO {
		t.Errorf("slo = %q, want DefaultExecSLO", m.SLO)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("defaulted manifest must validate: %v", err)
	}
}

// TestFillDefaultsHoldCoversFaults: hold_s stretches past the last fault
// so the staleness ladder can observe it.
func TestFillDefaultsHoldCoversFaults(t *testing.T) {
	m := Manifest{
		Name:   "h",
		Faults: []FaultSpec{{AtS: 4, Kind: FaultKill}, {AtS: 1, Kind: FaultTerm}},
	}.FillDefaults()
	if want := 4 + m.FleetSilentS + 3; m.HoldS != want {
		t.Errorf("hold_s = %g, want %g (last fault + silent + 3)", m.HoldS, want)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Manifest { return Manifest{Name: "x"}.FillDefaults() }
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"no name", func(m *Manifest) { m.Name = "" }, "needs a name"},
		{"agents low", func(m *Manifest) { m.Agents = 0 }, "agents"},
		{"agents high", func(m *Manifest) { m.Agents = 5000 }, "agents"},
		{"slots", func(m *Manifest) { m.Slots = 0 }, "slots"},
		{"negative fault time", func(m *Manifest) {
			m.Faults = []FaultSpec{{AtS: -1, Kind: FaultKill}}
		}, "at_s"},
		// A rule that could never breach: no series name, NaN threshold.
		{"slo without a name", func(m *Manifest) { m.SLO = ">=1" }, `">=1"`},
		{"slo NaN threshold", func(m *Manifest) { m.SLO = "availability>=NaN" }, "not a finite number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(&m)
			err := m.Validate()
			if err == nil {
				t.Fatal("wanted an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The in-tree TOML subset is gone: a .toml plan is refused by extension,
// before anything is parsed.
func TestLoadRejectsOtherExtensions(t *testing.T) {
	for _, name := range []string{"plan.toml", "plan.yaml", "plan"} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(`{"name":"x"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unknown manifest extension") {
			t.Errorf("Load(%s) = %v, want the unknown-extension error", name, err)
		}
	}
}
