package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exported series in a Snapshot.
type Sample struct {
	Name   string            `json:"name"`
	Kind   Kind              `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds the counter count or gauge value.
	Value float64 `json:"value,omitempty"`
	// Histogram-only fields. Buckets are raw (non-cumulative) counts per
	// bound; the entry past the last bound is the +Inf bucket.
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Key is the series' canonical identity — name, then label pairs sorted by
// key, NUL-separated: the registry's index key, and what fleet aggregation
// matches an agent's rows by.
func (s *Sample) Key() string {
	labels := make([]labelPair, 0, len(s.Labels))
	for k, v := range s.Labels {
		labels = append(labels, labelPair{k, v})
	}
	sort.Slice(labels, func(a, b int) bool { return labels[a].k < labels[b].k })
	return seriesKey(s.Name, labels)
}

// Doc is the system's one sample document. /metrics.json serves it with
// every series of the process; a fleet report (internal/obs/fleet) is the
// same document restricted to the rows that changed, plus the report's
// sequence number. Values are absolute in both.
type Doc struct {
	Seq    uint64   `json:"seq,omitempty"`
	Series []Sample `json:"series"`
}

// EncodeDoc renders samples as a compact Doc and returns it with the
// indexes of the samples it holds. A sample with a non-finite gauge value
// or histogram sum has no JSON form and costs only itself: it is left out.
// With budget > 0 a row that would take the document past budget bytes is
// left out too, so the caller can ship it in a later document.
func EncodeDoc(seq uint64, samples []Sample, budget int) (doc []byte, rows []int) {
	doc = append(doc, '{')
	if seq != 0 {
		doc = strconv.AppendUint(append(doc, `"seq":`...), seq, 10)
		doc = append(doc, ',')
	}
	doc = append(doc, `"series":[`...)
	for i := range samples {
		row, err := json.Marshal(&samples[i])
		if err != nil || budget > 0 && len(doc)+len(row)+len(",]}") > budget {
			continue
		}
		if len(rows) > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, row...)
		rows = append(rows, i)
	}
	return append(doc, "]}"...), rows
}

// DecodeDoc parses a Doc: a /metrics.json body or a fleet report.
func DecodeDoc(b []byte) (*Doc, error) {
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("obs: sample document: %w", err)
	}
	return &d, nil
}

// Snapshot captures every series of the given registries in registration
// order (registries concatenated in argument order).
func Snapshot(regs ...*Registry) []Sample {
	var out []Sample
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		order := append([]*series(nil), r.order...)
		r.mu.Unlock()
		for _, s := range order {
			smp := Sample{Name: s.name, Kind: s.kind}
			if len(s.labels) > 0 {
				smp.Labels = make(map[string]string, len(s.labels))
				for _, lp := range s.labels {
					smp.Labels[lp.k] = lp.v
				}
			}
			switch s.kind {
			case KindCounter:
				smp.Value = float64(s.c.Value())
			case KindGauge:
				smp.Value = s.g.Value()
			case KindHistogram:
				smp.Count = s.h.Count()
				smp.Sum = s.h.Sum()
				smp.Bounds = s.h.bounds
				smp.Buckets = make([]int64, len(s.h.buckets))
				for i := range s.h.buckets {
					smp.Buckets[i] = s.h.buckets[i].Load()
				}
			}
			out = append(out, smp)
		}
	}
	return out
}

// SumCounters returns the summed value of every counter series named name
// across the registries (e.g. totaling a labeled message counter).
func SumCounters(name string, regs ...*Registry) int64 {
	var total int64
	for _, smp := range Snapshot(regs...) {
		if smp.Kind == KindCounter && smp.Name == name {
			total += int64(smp.Value)
		}
	}
	return total
}

// WritePrometheus renders every series of the registries in the Prometheus
// text exposition format (version 0.0.4): a "# TYPE" line per metric name
// followed by its samples; histograms expose cumulative _bucket/_sum/_count
// series.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	typed := map[string]bool{}
	for _, smp := range Snapshot(regs...) {
		if !typed[smp.Name] {
			typed[smp.Name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", smp.Name, smp.Kind); err != nil {
				return err
			}
		}
		switch smp.Kind {
		case KindCounter, KindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				smp.Name, promLabels(smp.Labels, "", 0), promFloat(smp.Value)); err != nil {
				return err
			}
		case KindHistogram:
			cum := int64(0)
			for i, b := range smp.Buckets {
				cum += b
				le := math.Inf(1)
				if i < len(smp.Bounds) {
					le = smp.Bounds[i]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					smp.Name, promLabels(smp.Labels, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				smp.Name, promLabels(smp.Labels, "", 0), promFloat(smp.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				smp.Name, promLabels(smp.Labels, "", 0), smp.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as one indented Doc.
func WriteJSON(w io.Writer, regs ...*Registry) error {
	doc, _ := EncodeDoc(0, Snapshot(regs...), 0)
	var out bytes.Buffer
	if err := json.Indent(&out, doc, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err := w.Write(out.Bytes())
	return err
}

// promLabels renders a label set (plus an optional le bound for histogram
// buckets) as {k="v",...}, or "" when empty.
func promLabels(labels map[string]string, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q yields exactly the Prometheus label escaping (\\, \", \n).
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if leKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		if math.IsInf(le, 1) {
			fmt.Fprintf(&b, "%s=%q", leKey, "+Inf")
		} else {
			fmt.Fprintf(&b, "%s=%q", leKey, promFloat(le))
		}
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
