package main

import (
	"math"
	"sort"
)

// metricDef declares one ledger metric. The tables below are the program's
// copy of BENCHMARK.json; bench_test.go keeps the two identical.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression (end-to-end only).
	bound float64
}

// The workload names are fixed: later issues quote them.
const (
	loopPlan      = "loop-plan"
	controlSteady = "control-steady"
	enforceChurn  = "enforce-churn"
	forwardMix    = "forward-mix"
)

var workloadNames = []string{loopPlan, controlSteady, enforceChurn, forwardMix}

// endToEnd are the gated metrics. Every workload reports every one of them
// (the driver's contract), so each is defined over the workload's own
// closed-loop operation: a whole loop, a control slot, an enforcement round,
// a 1,000-packet burst. Beside the mandatory set-up time they are counts:
// on this shared host no timing of an operation held within the contract's
// largest bound across sets of ten runs, so the timings are in perLayer with
// the workload-specific figures of ISSUE 11 (README.md has the spreads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"live_heap_mb_max", "MB", "lower", 0.10},
}

// perLayer are the attributed metrics: the 57 of ISSUE 11, every workload's
// median latency, throughput and processor time per operation, the issue's
// workload-specific end-to-end figures (ungated here, see README.md), and
// the self-time share of the four layer groups from the traced operations.
var perLayer = []metricDef{
	{"texture.build_s", "s", "lower", 0},
	{"texture.tracks", "count", "lower", 0},
	{"texture.nnz", "count", "lower", 0},
	{"demand.synth_ms", "ms", "lower", 0},
	{"sparse.supply_ms", "ms", "lower", 0},
	{"sparse.ns_per_nnz", "ns", "lower", 0},
	{"core.sparsify_s", "s", "lower", 0},
	{"core.expand_s", "s", "lower", 0},
	{"core.verify_ms", "ms", "lower", 0},
	{"core.iterations", "count", "lower", 0},
	{"core.ms_per_iteration", "ms", "lower", 0},
	{"core.pruned", "count", "higher", 0},
	{"core.availability", "ratio", "higher", 0},
	{"intent.build_ms", "ms", "lower", 0},
	{"experiments.realize_ms", "ms", "lower", 0},
	{"experiments.network_build_ms", "ms", "lower", 0},
	{"orbit.slot_geom_ms", "ms", "lower", 0},
	{"orbit.cache_hit_ratio", "ratio", "higher", 0},
	{"orbit.warm_hit_ratio", "ratio", "higher", 0},
	{"orbit.pruned_pairs", "count", "higher", 0},
	{"stablematch.many_to_one_us", "us", "lower", 0},
	{"stablematch.one_to_one_us", "us", "lower", 0},
	{"mpc.cold_compile_ms_p50", "ms", "lower", 0},
	{"mpc.delta_compile_ms_p50", "ms", "lower", 0},
	{"mpc.delta_compile_ms_p95", "ms", "lower", 0},
	{"mpc.diff_links_us_p50", "us", "lower", 0},
	{"mpc.repair_us_p50", "us", "lower", 0},
	{"mpc.links_per_slot", "count", "higher", 0},
	{"mpc.links_changed_per_slot", "count", "lower", 0},
	{"mpc.cells_reused_ratio", "ratio", "higher", 0},
	{"mpc.enforcement_ratio", "ratio", "higher", 0},
	{"southbound.push_us_per_cmd", "us", "lower", 0},
	{"southbound.ack_wait_ms_p50", "ms", "lower", 0},
	{"southbound.ack_rtt_ms_mean", "ms", "lower", 0},
	{"southbound.cmds_per_slot", "count", "lower", 0},
	{"southbound.tx_bytes_per_cmd", "B", "lower", 0},
	{"southbound.snapshot_share", "ratio", "lower", 0},
	{"southbound.retransmits", "count", "lower", 0},
	{"southbound.codec_ns_per_msg", "ns", "lower", 0},
	{"southbound.dial_ms_per_agent", "ms", "lower", 0},
	{"dataplane.ns_per_hop_fast", "ns", "lower", 0},
	{"dataplane.ns_per_hop_failover", "ns", "lower", 0},
	{"dataplane.allocs_per_hop", "count", "lower", 0},
	{"dataplane.hops_per_pkt", "count", "lower", 0},
	{"dataplane.offpath_share", "ratio", "lower", 0},
	{"dataplane.codec_ns_per_pkt", "ns", "lower", 0},
	{"dataplane.header_bytes_per_pkt", "B", "lower", 0},
	{"dataplane.drops", "count", "lower", 0},
	{"netem.events_per_s", "1/s", "higher", 0},
	{"netem.queue_drops", "count", "lower", 0},
	{"netem.max_queue_depth", "count", "lower", 0},
	{"netem.link_util_max", "ratio", "lower", 0},
	{"netem.sim_rtt_ms_p50", "ms", "lower", 0},
	{"op_latency_ms_p50", "ms", "lower", 0},
	{"ops_per_s", "1/s", "higher", 0},
	{"cpu_ms_per_op", "ms", "lower", 0},
	{"proc.alloc_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},

	{"loop_wall_s", "s", "lower", 0},
	{"plan_s", "s", "lower", 0},
	{"plan_satellites", "count", "lower", 0},
	{"slot_latency_ms_p50", "ms", "lower", 0},
	{"slot_latency_ms_p95", "ms", "lower", 0},
	{"slots_per_s", "1/s", "higher", 0},
	{"wire_bytes_per_slot", "B", "lower", 0},
	{"enforce_cmds_per_s", "1/s", "higher", 0},
	{"repair_latency_ms_p50", "ms", "lower", 0},
	{"repair_latency_ms_p95", "ms", "lower", 0},
	{"fwd_pkts_per_s", "1/s", "higher", 0},
	{"delivery_ratio", "ratio", "higher", 0},
	{"failed_ops_ratio", "ratio", "lower", 0},

	{"share.plan", "ratio", "higher", 0},
	{"share.compile", "ratio", "higher", 0},
	{"share.southbound", "ratio", "higher", 0},
	{"share.forwarding", "ratio", "higher", 0},
}

// measurement is one reported metric: its value and the number of samples
// behind it (0 samples: the workload does not measure this metric).
type measurement struct {
	value float64
	n     int
}

// ledger collects a run's measurements by metric name.
type ledger map[string]measurement

// set records a value that n samples support.
func (l ledger) set(name string, v float64, n int) {
	if n > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		l[name] = measurement{v, n}
	}
}

// median records the median of samples under name.
func (l ledger) median(name string, samples []float64) {
	l.set(name, median(samples), len(samples))
}

// percentile records the p-th percentile of samples under name, provided at
// least ten samples lie beyond it; otherwise the metric stays absent.
func (l ledger) percentile(name string, samples []float64, p int) {
	if v, ok := percentile(samples, p); ok {
		l.set(name, v, len(samples))
	}
}

// ratio records num/den under name when den is positive.
func (l ledger) ratio(name string, num, den float64, n int) {
	if den > 0 {
		l.set(name, num/den, n)
	}
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples and whether
// at least minBeyond samples lie beyond it.
func percentile(samples []float64, p int) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := (n*p + 99) / 100 // ceil(n·p/100)
	if rank < 1 {
		rank = 1
	}
	s := sorted(samples)
	return s[rank-1], n-rank >= minBeyond
}

// highestPercentile returns the highest of the usual percentiles that n
// samples support with minBeyond samples beyond it (0 when none does).
func highestPercentile(n int) int {
	best := 0
	for _, p := range []int{50, 75, 90, 95, 99} {
		if rank := (n*p + 99) / 100; n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method the driver uses); v needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
