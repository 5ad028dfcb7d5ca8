package chaos

// Coverage for the campaign fleet telemetry plane: the deterministic
// constellation health summary, the crash → lagging → silent drift on
// the virtual clock, and the rollup-vs-ground-truth equality.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
)

// fleetCrashScenario crashes one satellite per round: the round-0 victim
// never reports (it dies before the first flush), the round-1 victim
// reports once and then drifts healthy → lagging → silent over the
// remaining round ticks.
var fleetCrashScenario = Scenario{
	Name:   "fleet-crash",
	Rounds: 3,
	Faults: []FaultKind{FaultISLDown, FaultSatCrash},
}

func TestCampaignFleetSummary(t *testing.T) {
	rep, err := Run(testCampaign(detScenario, 42))
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Fleet
	if fs == nil {
		t.Fatal("campaign report has no fleet summary")
	}
	if fs.Agents == 0 {
		t.Fatal("no agents reported over the fleet telemetry plane")
	}
	// One report per agent per round (no crashes in detScenario).
	if want := uint64(fs.Agents * detScenario.Rounds); fs.Reports != want {
		t.Fatalf("fleet reports = %d, want %d (%d agents x %d rounds)",
			fs.Reports, want, fs.Agents, detScenario.Rounds)
	}
	if fs.Bytes == 0 {
		t.Fatal("fleet summary counted reports but no bytes")
	}
	if fs.Gaps != 0 || fs.DecodeErrors != 0 {
		t.Fatalf("lossless local transport saw gaps=%d decode_errors=%d", fs.Gaps, fs.DecodeErrors)
	}
	if fs.AppliedTotal == 0 {
		t.Fatal("faulted campaign applied no southbound commands")
	}
	// The telemetry rollup must agree exactly with the agents' own
	// registries: the applied total aggregated over the wire equals the
	// ground-truth sum.
	var rolled *obs.Sample
	for i := range fs.Totals {
		if fs.Totals[i].Name == MetricAgentApplied {
			rolled = &fs.Totals[i]
		}
	}
	if rolled == nil {
		t.Fatalf("fleet totals missing %s: %+v", MetricAgentApplied, fs.Totals)
	}
	if rolled.Value != float64(fs.AppliedTotal) {
		t.Fatalf("rollup %s = %v, ground truth %d", MetricAgentApplied, rolled.Value, fs.AppliedTotal)
	}
	// The summary and the totals are read from the same rollup rows.
	for _, s := range fs.Totals {
		if s.Name == fleet.MetricAgentState || s.Name == fleet.MetricAgentSilence ||
			s.Name == fleet.MetricReports && s.Value != float64(fs.Reports) ||
			s.Name == fleet.MetricGaps && s.Value != float64(fs.Gaps) {
			t.Fatalf("totals row %+v disagrees with summary %+v", s, fs.Summary)
		}
	}
	if fs.States["healthy"] != fs.Agents {
		t.Fatalf("crash-free campaign ended with states %v, want all %d healthy", fs.States, fs.Agents)
	}
}

func TestCampaignCrashDrivesAgentSilent(t *testing.T) {
	rep, err := Run(testCampaign(fleetCrashScenario, 9))
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Fleet
	if fs == nil {
		t.Fatal("campaign report has no fleet summary")
	}
	if len(fs.Silent) == 0 {
		t.Fatalf("no agent went silent after per-round crashes: states %v", fs.States)
	}
	// The round-1 victim must walk the full staleness ladder, and each
	// transition must be a deterministic campaign event.
	silent := fs.Silent[0]
	lagged, silenced := false, false
	for _, ev := range rep.Events {
		if ev.Attr("sat") != fmt.Sprint(silent) {
			continue
		}
		switch ev.Type {
		case "agent_lagging":
			lagged = true
		case "agent_silent":
			if !lagged {
				t.Fatalf("agent %d went silent without lagging first", silent)
			}
			silenced = true
		}
	}
	if !lagged || !silenced {
		t.Fatalf("silent agent %d missing staleness events (lagging=%v silent=%v):\n%+v",
			silent, lagged, silenced, rep.Events)
	}
	if fs.States["silent"] != len(fs.Silent) {
		t.Fatalf("states map %v disagrees with silent list %v", fs.States, fs.Silent)
	}
}

// Same seed → byte-identical canonical report, fleet section included:
// the health view is aggregated over real TCP but timestamped purely by
// the virtual clock.
func TestCampaignFleetDeterministic(t *testing.T) {
	var canon [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(testCampaign(fleetCrashScenario, 9))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rep.Fleet == nil || len(rep.Fleet.Totals) == 0 {
			t.Fatalf("run %d: empty fleet summary", i)
		}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, b)
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatalf("same seed produced different fleet-bearing canonical reports:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			canon[0], canon[1])
	}
}
