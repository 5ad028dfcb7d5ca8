package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// ChaosCampaign runs the seeded fault-injection campaigns (tinyleo-bench
// -run chaos): every built-in scenario (or a single named one) against a
// Scale-sized testbed, reporting recovery time, delivery ratio, southbound
// reliability counters, the fleet telemetry health view, and the flight
// recorder's SLO verdicts. Same seed → identical rows (the campaign
// engine is deterministic; see internal/chaos). The returned map holds
// each scenario's final fleet summary, keyed by scenario name — the
// artifact tinyleo-bench -chaos-fleet-out dumps.
func ChaosCampaign(scale Scale, scenarioName string, seed int64) ([]*metrics.Table, map[string]*chaos.FleetSummary, error) {
	scenarios := chaos.Scenarios()
	if scenarioName != "" && scenarioName != "all" {
		s, err := chaos.ScenarioByName(scenarioName)
		if err != nil {
			return nil, nil, err
		}
		scenarios = []chaos.Scenario{s}
	}
	summary := metrics.NewTable(
		fmt.Sprintf("Chaos campaigns (seed %d, %s scale)", seed, scale.Name),
		"scenario", "rounds", "faults", "delivery ratio", "recovery p50 (ms)",
		"recovery p99 (ms)", "unrecovered", "retransmits", "ack timeouts",
		"reconnects", "enforcement", "SLO")
	fleetTab := metrics.NewTable("Chaos fleet telemetry (per-scenario health view)",
		"scenario", "agents", "reports", "report bytes", "gaps", "silent",
		"applied", "decode errors")
	verdicts := metrics.NewTable("Chaos SLO verdicts (flight-recorder rules)",
		"scenario", "rule", "value", "verdict")
	fleets := map[string]*chaos.FleetSummary{}
	for _, s := range scenarios {
		name := s.Name
		rep, err := chaos.Run(chaos.Campaign{Scenario: s, Seed: seed, Testbed: scale.testbedConfig()})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: chaos %s: %w", name, err)
		}
		faults := 0
		for _, rr := range rep.Rounds {
			faults += len(rr.Faults)
		}
		slo := "ok"
		if rep.SLOBreached > 0 {
			slo = fmt.Sprintf("%d breached", rep.SLOBreached)
		}
		summary.AddRow(name, len(rep.Rounds), faults,
			fmt.Sprintf("%.3f", rep.DeliveryRatio),
			fmt.Sprintf("%.1f", rep.RecoveryMsP50),
			fmt.Sprintf("%.1f", rep.RecoveryMsP99),
			rep.Unrecovered, rep.Retransmits, rep.AckTimeouts, rep.Reconnects,
			fmt.Sprintf("%.3f", rep.EnforcementRatio), slo)
		if fs := rep.Fleet; fs != nil {
			fleets[name] = fs
			fleetTab.AddRow(name, fs.Agents, fs.Reports, fs.Bytes, fs.Gaps,
				len(fs.Silent), fs.AppliedTotal, fs.DecodeErrors)
		}
		for _, st := range rep.SLO {
			v := "ok"
			if st.Breached {
				v = "BREACH"
			}
			verdicts.AddRow(name, st.Expr(), fmt.Sprintf("%.3f", st.Value), v)
		}
	}
	return []*metrics.Table{summary, fleetTab, verdicts}, fleets, nil
}
