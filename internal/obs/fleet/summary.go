package fleet

import (
	"maps"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// Summary is the fleet-wide accounting of a rollup document, shared by
// chaos and testground reports and `tinyleo-ctl top`.
type Summary struct {
	Agents  int    `json:"agents"` // agents that reported at least once
	Reports uint64 `json:"reports"`
	Bytes   uint64 `json:"bytes"`
	Gaps    uint64 `json:"gaps"`
	// States counts agents per health state; Silent lists the silent
	// agents' IDs, ascending.
	States       map[string]int `json:"states"`
	Silent       []int          `json:"silent,omitempty"`
	DecodeErrors int64          `json:"decode_errors"`
}

// Summarize condenses the Metric* series of a rollup document — a
// snapshot of the aggregator's registry, or a /metrics.json body that
// holds it — into the fleet's accounting.
func Summarize(samples []obs.Sample) Summary {
	s := Summary{States: map[string]int{}}
	for i := range samples {
		smp := &samples[i]
		n := uint64(smp.Value)
		switch smp.Name {
		case MetricReports:
			s.Agents++
			s.Reports += n
		case MetricReportBytes:
			s.Bytes += n
		case MetricGaps:
			s.Gaps += n
		case MetricDecodeErrors:
			s.DecodeErrors += int64(n)
		case MetricAgentState:
			st := State(smp.Value)
			s.States[st.String()]++
			if id, err := strconv.Atoi(smp.Labels["agent"]); err == nil && st == StateSilent {
				s.Silent = append(s.Silent, id)
			}
		}
	}
	sort.Ints(s.Silent)
	return s
}

// Totals sums a rollup document's per-agent series across agents: the
// agent label is stripped and equal series merged (counters and gauges
// add; histograms add count, sum and buckets when their bounds match).
// Series without an agent label are kept as they are, and the per-agent
// state and silence gauges, whose sums mean nothing, are left out. The
// input is not modified. Sorted by name then labels.
func Totals(samples []obs.Sample) []obs.Sample {
	idx := map[string]int{}
	var out []obs.Sample
	for _, s := range samples {
		if s.Name == MetricAgentState || s.Name == MetricAgentSilence {
			continue
		}
		s.Labels = maps.Clone(s.Labels)
		if delete(s.Labels, "agent"); len(s.Labels) == 0 {
			s.Labels = nil
		}
		key := s.Key()
		i, ok := idx[key]
		if !ok {
			idx[key] = len(out)
			s.Buckets = append([]int64(nil), s.Buckets...)
			out = append(out, s)
			continue
		}
		dst := &out[i]
		switch s.Kind {
		case obs.KindCounter, obs.KindGauge:
			dst.Value += s.Value
		case obs.KindHistogram:
			if len(dst.Buckets) == len(s.Buckets) {
				dst.Count, dst.Sum = dst.Count+s.Count, dst.Sum+s.Sum
				for j, b := range s.Buckets {
					dst.Buckets[j] += b
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
