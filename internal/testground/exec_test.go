package testground

// End-to-end exec mode: the runner builds the real binaries, launches
// one tinyleo-ctl plus three tinyleo-sat processes over the real TCP
// southbound, kills one agent on schedule, and the scored report must
// show the fault observed (a silent agent) and the SLO rules passing.

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/tracemerge"
	"repro/internal/southbound"
)

// buildBinaries compiles tinyleo-ctl and tinyleo-sat into a temp dir.
func buildBinaries(t *testing.T) (ctlBin, satBin string) {
	t.Helper()
	dir := t.TempDir()
	ctlBin = filepath.Join(dir, "tinyleo-ctl")
	satBin = filepath.Join(dir, "tinyleo-sat")
	for bin, pkg := range map[string]string{ctlBin: "repro/cmd/tinyleo-ctl", satBin: "repro/cmd/tinyleo-sat"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return ctlBin, satBin
}

func TestRunExecKillsAgentOnSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	ctlBin, satBin := buildBinaries(t)
	m := Manifest{
		Name:   "e2e",
		Agents: 3,
		Slots:  2,
		Faults: []FaultSpec{{AtS: 1, Kind: FaultKill, Agent: 1}},
		SLO:    "tinyleo_fleet_reports_total>=1,tinyleo_fleet_decode_errors_total<=0,tinyleo_fleet_agents>=3,tinyleo_fleet_agents_silent<=1",
	}.FillDefaults()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dir := t.TempDir()
	rep, err := RunExec(&m, ExecConfig{CtlBin: ctlBin, SatBin: satBin, Dir: dir})
	if err != nil {
		t.Fatalf("RunExec: %v", err)
	}
	if rep.Err != "" {
		t.Fatalf("orchestration error: %s", rep.Err)
	}
	if !rep.Passed || rep.SLOBreached != 0 {
		t.Errorf("run failed its SLO: breached=%d slo=%+v", rep.SLOBreached, rep.SLO)
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != FaultKill || rep.Faults[0].Err != "" {
		t.Errorf("fault records: %+v", rep.Faults)
	}
	if rep.Fleet == nil || rep.Fleet.Agents != 3 {
		t.Fatalf("fleet rollup: %+v", rep.Fleet)
	}
	if got := rep.Fleet.States[fleet.StateSilent.String()]; got != 1 {
		t.Errorf("silent agents = %d, want 1 (the killed one): %+v", got, rep.Fleet)
	}
	if len(rep.Fleet.Silent) != 1 || rep.Fleet.Silent[0] != 1 {
		t.Errorf("silent IDs = %v, want [1]", rep.Fleet.Silent)
	}

	// The run directory holds the promised artifacts; the report's fleet
	// block is the metrics document's summary.
	samples, err := readSamples(filepath.Join(dir, MetricsFile))
	if err != nil {
		t.Fatalf("controller metrics artifact: %v", err)
	}
	if sum := fleet.Summarize(samples); !reflect.DeepEqual(&sum, rep.Fleet) {
		t.Errorf("%s summarizes to %+v, the report carries %+v", MetricsFile, sum, rep.Fleet)
	}
	wantArtifacts := map[string]bool{
		MetricsFile: false, "ctl.log": false, "ctl-flight.jsonl.gz": false,
		"sat-0-flight.jsonl.gz": false, "sat-2-flight.jsonl.gz": false,
	}
	for _, a := range rep.Artifacts {
		if _, ok := wantArtifacts[a.Name]; ok {
			wantArtifacts[a.Name] = true
		}
		// One record file per process: nothing writes a second format.
		if strings.Contains(a.Name, "trace") {
			t.Errorf("artifact %s: a process left a second record file", a.Name)
		}
	}
	for name, seen := range wantArtifacts {
		if !seen {
			t.Errorf("artifact %s missing from inventory: %+v", name, rep.Artifacts)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "sat-1-flight.jsonl.gz")); err == nil {
		t.Error("the SIGKILLed agent left a recording")
	}

	// The same controller file serves both commands: spans (with the
	// agents' files, one merged timeline) to the trace reader, slots and
	// the agent_connect events to inspect.
	var recs []*flightrec.Recording
	for _, name := range []string{"ctl-flight.jsonl.gz", "sat-0-flight.jsonl.gz", "sat-2-flight.jsonl.gz"} {
		rec, err := flightrec.ReadRecordingFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("recording %s: %v", name, err)
		}
		recs = append(recs, rec)
	}
	ctlRec := recs[0]
	if ctlRec.Proc != "tinyleo-ctl" || recs[1].Proc != "tinyleo-sat-0" || ctlRec.EpochUS == 0 {
		t.Errorf("recording identities: %q %q epoch %d", ctlRec.Proc, recs[1].Proc, ctlRec.EpochUS)
	}
	merged := tracemerge.Merge(recs...)
	spanNames := map[string]int{}
	for _, s := range merged.Spans {
		spanNames[s.Proc+"/"+s.Name]++
	}
	// Agent k plays the controller's k-th network satellite, so each
	// surviving agent, 2 as well as 0, is enforced on.
	if spanNames["tinyleo-ctl/mpc.emit"] != m.Slots || spanNames["tinyleo-ctl/sb.send"] == 0 ||
		spanNames["tinyleo-sat-0/agent.apply"] == 0 || spanNames["tinyleo-sat-2/agent.apply"] == 0 {
		t.Errorf("merged spans: %v", spanNames)
	}
	if anchor, _ := merged.Offsets(); anchor != "tinyleo-ctl" {
		t.Errorf("clock anchor = %q", anchor)
	}
	connects := 0
	for _, ev := range ctlRec.Events() {
		if ev.Name == "southbound.agent_connect" {
			connects++
		}
	}
	if len(ctlRec.Slots) < 1 || connects != m.Agents {
		t.Errorf("controller recording: %d slots, %d agent_connect events, want ≥ 1 and %d", len(ctlRec.Slots), connects, m.Agents)
	}
	var report strings.Builder
	if err := ctlRec.WriteReport(&report, flightrec.InspectOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== per-slot topology ==", "slot 0 (t=0s", "== failure sequences ==", "== final SLO status =="} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("inspect report lacks %q:\n%s", want, report.String())
		}
	}

	// The real process pair enforced by slot-delta: the agents' first
	// contact was a full-snapshot re-sync and at least one snapshot reached
	// the wire (there is no other ISL command to send).
	value := func(name string, labels ...string) float64 {
	next:
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			for i := 0; i < len(labels); i += 2 {
				if s.Labels[labels[i]] != labels[i+1] {
					continue next
				}
			}
			return s.Value
		}
		t.Errorf("series %s%v missing from ctl-metrics.json", name, labels)
		return 0
	}
	if v := value(southbound.MetricDeltaMessages, "kind", "snapshot"); v <= 0 {
		t.Errorf("%s{kind=snapshot} = %v, want > 0 (first-contact re-syncs)", southbound.MetricDeltaMessages, v)
	}
	if v := value(southbound.MetricMessages, "dir", "tx", "type", "slot-snapshot"); v <= 0 {
		t.Errorf("tx slot-snapshot = %v, want > 0", v)
	}

	// The scored report file exists and reads back.
	if _, err := rep.WriteFile(dir); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := ReadReportFile(filepath.Join(dir, ReportFile))
	if err != nil {
		t.Fatalf("ReadReportFile: %v", err)
	}
	if !back.Passed || back.Plan.Name != "e2e" {
		t.Errorf("report round trip: %+v", back)
	}
}
