package tracemerge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// Span is one record on the merged timeline — a span, or an instant
// event with DurUS 0 and no identifiers — at absolute, skew-corrected
// microsecond timestamps.
type Span struct {
	Proc    string
	Name    string
	StartUS int64 // absolute Unix µs, after skew correction
	DurUS   int64
	Trace   string
	Span    string
	Parent  string
	Attrs   map[string]string
}

// Merged is the cross-process timeline produced by Merge. Events are the
// processes' instant events, shifted by the same per-process correction as
// the spans around them.
type Merged struct {
	Spans   []Span
	Events  []Span
	offsets map[string]int64 // proc → applied correction (µs)
	anchor  string
}

// Offsets reports the per-process clock corrections (µs subtracted from
// each process's absolute timestamps) and the anchor process they are
// relative to.
func (m *Merged) Offsets() (anchor string, offsets map[string]int64) {
	return m.anchor, m.offsets
}

// Merge places every recording (read with flightrec.ReadRecording: a
// tracer dump or a full flight recording) on one absolute timeline and
// corrects per-process clock skew. The anchor is the recording with the
// most sb.send spans (the controller); for every other process, each command traced
// across the boundary yields an NTP-style offset sample
//
//	offset = ((apply.start − send.start) + (apply.end − ack.end)) / 2
//
// (positive = that process's clock runs ahead of the anchor's), and the
// median sample is subtracted from all of its timestamps. Processes that
// share no command with the anchor are left uncorrected.
func Merge(dumps ...*flightrec.Recording) *Merged {
	m := &Merged{offsets: map[string]int64{}}
	// Anchor = most sb.send spans; ties break on name for determinism.
	bestSends := -1
	for _, d := range dumps {
		sends := 0
		for _, ev := range d.Records {
			if ev.Name == "sb.send" {
				sends++
			}
		}
		if sends > bestSends || (sends == bestSends && d.Proc < m.anchor) {
			bestSends, m.anchor = sends, d.Proc
		}
	}
	// Index the anchor's send/ack spans per command. One mpc.emit root can
	// fan out to many commands on the same trace id, so the key is
	// trace+seq, not trace alone.
	type bracket struct{ sendStart, ackEnd int64 } // absolute µs, anchor clock
	brackets := map[string]*bracket{}
	cmdKey := func(ev obs.Event) string { return ev.Trace + "/" + ev.Attrs["seq"] }
	for _, d := range dumps {
		if d.Proc != m.anchor {
			continue
		}
		for _, ev := range d.Records {
			abs := d.EpochUS + ev.StartUS
			switch ev.Name {
			case "sb.send":
				b := brackets[cmdKey(ev)]
				if b == nil {
					brackets[cmdKey(ev)] = &bracket{sendStart: abs, ackEnd: -1}
				} else {
					b.sendStart = abs
				}
			case "sb.ack":
				b := brackets[cmdKey(ev)]
				if b == nil {
					brackets[cmdKey(ev)] = &bracket{sendStart: -1, ackEnd: abs + ev.DurUS}
				} else {
					b.ackEnd = abs + ev.DurUS
				}
			}
		}
	}
	for _, d := range dumps {
		offset := int64(0)
		if d.Proc != m.anchor {
			var samples []int64
			for _, ev := range d.Records {
				if ev.Name != "agent.apply" {
					continue
				}
				b := brackets[cmdKey(ev)]
				if b == nil || b.sendStart < 0 || b.ackEnd < 0 {
					continue
				}
				start := d.EpochUS + ev.StartUS
				end := start + ev.DurUS
				samples = append(samples, ((start-b.sendStart)+(end-b.ackEnd))/2)
			}
			if len(samples) > 0 {
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				offset = samples[len(samples)/2]
			}
		}
		m.offsets[d.Proc] = offset
		for _, ev := range d.Records {
			s := Span{
				Proc:    d.Proc,
				Name:    ev.Name,
				StartUS: d.EpochUS + ev.StartUS - offset,
				DurUS:   ev.DurUS,
				Trace:   ev.Trace,
				Span:    ev.Span,
				Parent:  ev.Parent,
				Attrs:   ev.Attrs,
			}
			if ev.Instant {
				m.Events = append(m.Events, s)
			} else {
				m.Spans = append(m.Spans, s)
			}
		}
	}
	sortTimeline(m.Spans)
	sortTimeline(m.Events)
	return m
}

func sortTimeline(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return obs.AttrString(a.Attrs) < obs.AttrString(b.Attrs)
	})
}

// chromeEvent mirrors the trace_event JSON schema (complete spans,
// instant events, flow s/f pairs and process_name metadata).
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Cat   string         `json:"cat,omitempty"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the merged timeline for chrome://tracing /
// Perfetto: one pid per process (named via process_name metadata),
// timestamps rebased to the earliest record, a flow arrow for every
// parent→child edge that crosses a process boundary (controller send →
// agent apply), and an instant marker per event.
func (m *Merged) WriteChromeTrace(w io.Writer) error {
	procs := make([]string, 0, len(m.offsets))
	for p := range m.offsets {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	pid := map[string]int{}
	var out []chromeEvent
	for i, p := range procs {
		pid[p] = i + 1
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", PID: i + 1, TID: 0,
			Args: map[string]any{"name": p},
		})
	}
	// Both lists are sorted: the timeline starts at the earlier head.
	t0 := int64(math.MaxInt64)
	for _, list := range [][]Span{m.Spans, m.Events} {
		if len(list) > 0 {
			t0 = min(t0, list[0].StartUS)
		}
	}
	// Where does each span live? Needed to detect cross-process edges.
	spanProc := map[string]string{}
	spanEnd := map[string]int64{}
	for _, s := range m.Spans {
		if s.Span != "" {
			spanProc[s.Span] = s.Proc
			spanEnd[s.Span] = s.StartUS + s.DurUS
		}
	}
	for _, s := range m.Spans {
		args := map[string]any{}
		for k, v := range s.Attrs {
			args[k] = v
		}
		if s.Trace != "" {
			args["trace"], args["span"] = s.Trace, s.Span
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
		}
		if len(args) == 0 {
			args = nil
		}
		out = append(out, chromeEvent{
			Name: s.Name, Ph: "X", PID: pid[s.Proc], TID: 1,
			TS: s.StartUS - t0, Dur: s.DurUS, Args: args,
		})
		if s.Parent != "" && spanProc[s.Parent] != "" && spanProc[s.Parent] != s.Proc {
			// Flow arrow: parent's end → this span's start.
			out = append(out, chromeEvent{
				Name: "causal", Ph: "s", Cat: "sb", ID: s.Span,
				PID: pid[spanProc[s.Parent]], TID: 1,
				TS: min(spanEnd[s.Parent], s.StartUS) - t0,
			})
			out = append(out, chromeEvent{
				Name: "causal", Ph: "f", BP: "e", Cat: "sb", ID: s.Span,
				PID: pid[s.Proc], TID: 1, TS: s.StartUS - t0,
			})
		}
	}
	for _, e := range m.Events {
		var args map[string]any
		if len(e.Attrs) > 0 {
			args = make(map[string]any, len(e.Attrs))
			for k, v := range e.Attrs {
				args[k] = v
			}
		}
		// A process-scoped instant: a vertical marker across the pid's rows.
		out = append(out, chromeEvent{
			Name: e.Name, Ph: "i", Scope: "p", PID: pid[e.Proc], TID: 1,
			TS: e.StartUS - t0, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteCanonical renders the merged timeline in a deterministic text form
// for run-twice comparisons: traces and spans are renumbered in sorted
// order (raw span IDs depend on concurrent allocation order even under a
// seeded tracer, so they are not printed), and every line carries the
// process, timing, and attributes; the instant events follow in timeline
// order. Two campaigns with the same seed and virtual clock produce
// byte-identical canonical dumps.
func (m *Merged) WriteCanonical(w io.Writer) error {
	// Group spans by trace; untraced spans form a pseudo-group keyed "".
	byTrace := map[string][]Span{}
	for _, s := range m.Spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	type group struct {
		key   string // sort key: first span's start/name/attrs
		trace string
		spans []Span
	}
	groups := make([]group, 0, len(byTrace))
	for tr, spans := range byTrace {
		// m.Spans is globally sorted, so spans within a group are too.
		first := spans[0]
		key := fmt.Sprintf("%016d %s %s", first.StartUS, first.Name, obs.AttrString(first.Attrs))
		groups = append(groups, group{key: key, trace: tr, spans: spans})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].key != groups[j].key {
			return groups[i].key < groups[j].key
		}
		return groups[i].trace < groups[j].trace
	})
	bw := bufio.NewWriter(w)
	for gi, g := range groups {
		canon := map[string]string{} // raw span id → t<gi>.s<n>
		for si, s := range g.spans {
			if s.Span != "" {
				canon[s.Span] = fmt.Sprintf("t%d.s%d", gi, si)
			}
		}
		fmt.Fprintf(bw, "trace t%d spans=%d\n", gi, len(g.spans))
		for si, s := range g.spans {
			parent := "-"
			if s.Parent != "" {
				if c, ok := canon[s.Parent]; ok {
					parent = c
				} else {
					parent = "?" // parent span not in any dump (ring-evicted)
				}
			}
			fmt.Fprintf(bw, "  s%d %s proc=%s parent=%s start=%d dur=%d %s\n",
				si, s.Name, s.Proc, parent, s.StartUS, s.DurUS, obs.AttrString(s.Attrs))
		}
	}
	if len(m.Events) > 0 {
		fmt.Fprintf(bw, "events n=%d\n", len(m.Events))
		for _, e := range m.Events {
			fmt.Fprintf(bw, "  %s proc=%s t=%d %s\n", e.Name, e.Proc, e.StartUS, obs.AttrString(e.Attrs))
		}
	}
	return bw.Flush()
}
