package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// traceCapacity sizes the span ring so that no span of a full run is
// overwritten (a run checks Dropped() == 0): the busiest workload records
// about five spans for each of some tens of thousands of operations.
const traceCapacity = 1 << 18

// spans is the benchmark-owned tracer: one root span per operation and one
// child per call into a layer, all carrying the operation's id. Operations
// of a traced run alternate between traced and untraced, so on is toggled
// per operation; a nil *spans (an untraced run) records nothing.
type spans struct {
	t  *obs.Tracer
	on bool
}

func newSpans(workload string) *spans {
	t := &obs.Tracer{}
	t.SetProcess("bench/" + workload)
	t.Enable(traceCapacity)
	return &spans{t: t}
}

// start opens a span under parent (zero parent: an operation's root).
func (s *spans) start(parent obs.SpanContext, name string, op int) obs.Span {
	if s == nil || !s.on {
		return obs.Span{}
	}
	return s.t.StartSpanCtx(parent, name, "op", strconv.Itoa(op))
}

// write dumps the ring as JSONL in the schema `tinyleo-ctl trace` reads.
func (s *spans) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := s.t.WriteJSONL(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// selfTimes returns, per span name, the summed self time in microseconds: a
// span's duration minus the part of its interval that its direct children
// cover (overlapping children count once; grandchildren are their parent's).
func selfTimes(events []obs.Event) map[string]int64 {
	children := map[string][]obs.Event{}
	for _, ev := range events {
		if ev.Parent != "" {
			children[ev.Parent] = append(children[ev.Parent], ev)
		}
	}
	self := map[string]int64{}
	for _, ev := range events {
		lo, hi := ev.StartUS, ev.StartUS+ev.DurUS
		kids := children[ev.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, end := int64(0), lo
		for _, k := range kids {
			a, b := max(k.StartUS, end), min(k.StartUS+k.DurUS, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[ev.Name] += ev.DurUS - covered
	}
	return self
}

// layerGroups maps a span name's layer prefix to the four groups whose share
// of a workload's wall time ISSUE 11 asks for.
var layerGroups = map[string]string{
	"texture": "plan", "demand": "plan", "core": "plan",
	"mpc":        "compile",
	"southbound": "southbound",
	"dataplane":  "forwarding", "netem": "forwarding",
}

// shares folds per-span self times into the share of each layer group.
func shares(self map[string]int64) (byGroup map[string]float64, total int64) {
	byGroup = map[string]float64{}
	for name, us := range self {
		total += us
		layer, _, _ := strings.Cut(name, ".")
		if g, ok := layerGroups[layer]; ok {
			byGroup[g] += float64(us)
		}
	}
	for g := range byGroup {
		byGroup[g] /= float64(total)
	}
	return byGroup, total
}
