package chaos

import (
	"encoding/json"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
)

// RoundReport is one fault→measure→repair→measure cycle's accounting.
// Every field is a logical or sim-time quantity (no wall clock).
type RoundReport struct {
	Round  int      `json:"round"`
	Faults []string `json:"faults,omitempty"` // "kind target" descriptions

	PacketsSent      int `json:"packets_sent"`
	PacketsDelivered int `json:"packets_delivered"`
	PacketsDropped   int `json:"packets_dropped"`

	CommandsSent      int `json:"commands_sent"` // tracked enforcement commands
	CommandsAcked     int `json:"commands_acked"`
	CommandsUnknown   int `json:"commands_unknown"`   // target agent gone (crash)
	CommandsAbandoned int `json:"commands_abandoned"` // ack timeout → unreachable

	LinksAdded   int `json:"links_added"`
	LinksRemoved int `json:"links_removed"`
	Unrepaired   int `json:"unrepaired"`

	// RecoveryMs is the per-flow recovery time for this round's faults
	// (sim ms from fault injection to first post-fault delivery), sorted;
	// Unrecovered counts flows with no delivery by round end.
	RecoveryMs  []float64 `json:"recovery_ms,omitempty"`
	Unrecovered int       `json:"unrecovered"`
}

// FleetSummary is the campaign's final constellation health view,
// derived from the fleet telemetry plane (internal/obs/fleet): every
// agent pushes the changed rows of its registry over the southbound
// session, and a virtual-clock aggregator merges them. All fields are
// functions of (seed, scenario), so the summary is part of
// CanonicalJSON. An agent crashed before its first round-end flush never
// appears in Agents; DecodeErrors is always 0 for a healthy encoder.
type FleetSummary struct {
	fleet.Summary
	// AppliedTotal is the fleet-wide MetricAgentApplied sum read from the
	// agents' own registries — the ground truth the telemetry rollup is
	// compared against.
	AppliedTotal int64 `json:"applied_total"`
	// Totals are the rollup registry's fleet-wide aggregates (agent label
	// stripped), sorted by series identity.
	Totals []obs.Sample `json:"totals"`
}

// Report is a campaign's full outcome. CanonicalJSON excludes the
// wall-clock section, so two runs with the same seed produce identical
// canonical bytes.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Rounds   []RoundReport
	Events   []Event `json:"events"`

	// Aggregates.
	PacketsSent      int     `json:"packets_sent"`
	PacketsDelivered int     `json:"packets_delivered"`
	PacketsDropped   int     `json:"packets_dropped"`
	DeliveryRatio    float64 `json:"delivery_ratio"`
	EnforcementRatio float64 `json:"enforcement_ratio"`

	RecoveryMsP50 float64 `json:"recovery_ms_p50"`
	RecoveryMsP99 float64 `json:"recovery_ms_p99"`
	RecoveryMsMax float64 `json:"recovery_ms_max"`
	Unrecovered   int     `json:"unrecovered"`

	AckTimeouts int64 `json:"ack_timeouts"`
	Reconnects  int64 `json:"reconnects"`

	// Channel-level loss accounting (the netem counters the bugfixes
	// separated: queue/down drops vs in-flight loss vs stochastic storms).
	LinkDrops        int64 `json:"link_drops"`
	LostInFlight     int64 `json:"lost_in_flight"`
	ImpairmentLosses int64 `json:"impairment_losses"`

	// Fleet is the constellation health view aggregated from the fleet
	// telemetry plane at campaign end.
	Fleet *FleetSummary `json:"fleet,omitempty"`

	// SLO is the flight-recorder rule evaluation over the campaign's
	// private registry (EvalUS zeroed for reproducibility).
	SLO         []flightrec.RuleStatus `json:"slo"`
	SLOBreached int                    `json:"slo_breached"`

	// Wall-clock measurements: excluded from CanonicalJSON.
	WallRepairMs  []float64 `json:"wall_repair_ms,omitempty"`
	WallElapsedMs float64   `json:"wall_elapsed_ms,omitempty"`
}

// CanonicalJSON renders the deterministic portion of the report: same
// seed and scenario → byte-identical output.
func (r *Report) CanonicalJSON() ([]byte, error) {
	shadow := *r
	shadow.WallRepairMs = nil
	shadow.WallElapsedMs = 0
	return json.MarshalIndent(&shadow, "", "  ")
}

// percentile returns the nearest-rank percentile of sorted (ascending)
// values, or 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// score evaluates the scenario's SLO spec with the flight recorder's
// engine over a private registry fed only engine-computed campaign
// values, so the verdicts are deterministic for a given seed.
func (r *Report) score(spec string) error {
	if spec == "" {
		spec = DefaultSLO
	}
	rules, err := flightrec.ParseRules(spec)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry(true)
	// The built-in SLO kinds read the standard series names; feed them the
	// campaign aggregates.
	reg.Gauge("tinyleo_mpc_enforcement_ratio").Set(r.EnforcementRatio)
	reg.Counter("tinyleo_dataplane_delivered_total").Add(int64(r.PacketsDelivered))
	reg.Counter("tinyleo_dataplane_dropped_total").Add(int64(r.PacketsDropped))
	reg.Counter("tinyleo_dataplane_forwarded_total").Add(int64(r.PacketsSent))
	// Chaos-specific indicators, referenced via the raw-metric rule kind.
	reg.Gauge("tinyleo_chaos_delivery_ratio").Set(r.DeliveryRatio)
	reg.Gauge("tinyleo_chaos_recovery_p50_ms").Set(r.RecoveryMsP50)
	reg.Gauge("tinyleo_chaos_recovery_p99_ms").Set(r.RecoveryMsP99)
	reg.Gauge("tinyleo_chaos_unrecovered").Set(float64(r.Unrecovered))
	reg.Counter("tinyleo_southbound_ack_timeouts_total").Add(r.AckTimeouts)
	// Fleet telemetry health, scoreable via the raw-metric rule kind
	// (e.g. "tinyleo_fleet_agents_silent<=0").
	if r.Fleet != nil {
		for _, s := range r.Fleet.Samples() {
			if s.Kind == obs.KindGauge {
				reg.Gauge(s.Name).Set(s.Value)
			} else {
				reg.Counter(s.Name).Add(int64(s.Value))
			}
		}
	}

	eng := flightrec.NewEngine(nil, rules...)
	eng.SetRegistries(reg)
	status := eng.Eval()
	r.SLOBreached = 0
	for i := range status {
		status[i].EvalUS = 0 // wall-clock: excluded from the canonical form
		if status[i].Breached {
			r.SLOBreached++
		}
	}
	r.SLO = status
	return nil
}

// aggregate fills the report's campaign-level fields from its rounds.
func (r *Report) aggregate() {
	var rec []float64
	for _, rd := range r.Rounds {
		r.PacketsSent += rd.PacketsSent
		r.PacketsDelivered += rd.PacketsDelivered
		r.PacketsDropped += rd.PacketsDropped
		r.Unrecovered += rd.Unrecovered
		rec = append(rec, rd.RecoveryMs...)
	}
	if r.PacketsSent > 0 {
		r.DeliveryRatio = float64(r.PacketsDelivered) / float64(r.PacketsSent)
	}
	sort.Float64s(rec)
	r.RecoveryMsP50 = percentile(rec, 50)
	r.RecoveryMsP99 = percentile(rec, 99)
	if len(rec) > 0 {
		r.RecoveryMsMax = rec[len(rec)-1]
	}
}
