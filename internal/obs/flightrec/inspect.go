package flightrec

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// SlotDelta is the link-level change between two slot link sets, as the
// postmortem inspector prints it. Added and Removed are in canonical
// ascending link order, so identical inputs always produce identical
// deltas.
type SlotDelta struct {
	Added, Removed [][2]int
}

// Size returns the number of link operations the delta carries.
func (d SlotDelta) Size() int { return len(d.Added) + len(d.Removed) }

// SlotDiff is the change between two consecutive recorded slots: the
// postmortem unit the inspector prints.
type SlotDiff struct {
	Prev, Cur *SlotState
	// Inter and Ring are the ISL churn, split by link class.
	Inter, Ring SlotDelta
	// CellsLost lists cells that had coverage before and none now;
	// CellsGained the reverse; CellsShrunk cells whose satellite count
	// dropped (cell → before-after delta).
	CellsLost, CellsGained []int
	CellsShrunk            map[int]int
	// DeficitDelta is cur.DeficitTotal() - prev.DeficitTotal().
	DeficitDelta int
}

// Churn returns the total number of link changes in the diff.
func (d *SlotDiff) Churn() int {
	return d.Inter.Size() + d.Ring.Size()
}

// DiffSlots computes the change from prev to cur.
func DiffSlots(prev, cur *SlotState) *SlotDiff {
	d := &SlotDiff{Prev: prev, Cur: cur, CellsShrunk: map[int]int{}}
	d.Inter = diffLinks(prev.InterLinks, cur.InterLinks)
	d.Ring = diffLinks(prev.RingLinks, cur.RingLinks)
	cells := map[int]bool{}
	for u := range prev.CellSats {
		cells[u] = true
	}
	for u := range cur.CellSats {
		cells[u] = true
	}
	for u := range cells {
		before, after := len(prev.CellSats[u]), len(cur.CellSats[u])
		switch {
		case before > 0 && after == 0:
			d.CellsLost = append(d.CellsLost, u)
		case before == 0 && after > 0:
			d.CellsGained = append(d.CellsGained, u)
		case after < before:
			d.CellsShrunk[u] = after - before
		}
	}
	sort.Ints(d.CellsLost)
	sort.Ints(d.CellsGained)
	d.DeficitDelta = cur.DeficitTotal() - prev.DeficitTotal()
	return d
}

// diffLinks computes the SlotDelta from prev to cur.
func diffLinks(prev, cur [][2]int) (d SlotDelta) {
	ps := make(map[[2]int]bool, len(prev))
	for _, l := range prev {
		ps[l] = true
	}
	cs := make(map[[2]int]bool, len(cur))
	for _, l := range cur {
		cs[l] = true
		if !ps[l] {
			d.Added = append(d.Added, l)
		}
	}
	for _, l := range prev {
		if !cs[l] {
			d.Removed = append(d.Removed, l)
		}
	}
	sortLinks(d.Added)
	sortLinks(d.Removed)
	return d
}

func sortLinks(ls [][2]int) {
	sort.Slice(ls, func(a, b int) bool {
		if ls[a][0] != ls[b][0] {
			return ls[a][0] < ls[b][0]
		}
		return ls[a][1] < ls[b][1]
	})
}

// FailureSequence is one reconstructed injected-failure timeline: the
// failure events, the repair that answered them, and the recovery (or
// degradation) outcome.
type FailureSequence struct {
	Failures []obs.Event // isl_fail / sat_fail / failure_report
	Repair   *obs.Event  // mpc repair event, if any
	Outcome  *obs.Event  // recovered / degraded, if any
}

// FailureSequences groups the recording's failure-related events into
// ordered timelines: a run of failure events, then the next repair, then
// its outcome.
func (rec *Recording) FailureSequences() []FailureSequence {
	events := rec.Events()
	var out []FailureSequence
	var cur *FailureSequence
	for i := range events {
		ev := &events[i]
		if isFailure(ev) {
			if cur == nil || cur.Repair != nil || cur.Outcome != nil {
				out = append(out, FailureSequence{})
				cur = &out[len(out)-1]
			}
			cur.Failures = append(cur.Failures, *ev)
			continue
		}
		switch _, typ := SplitEventName(ev.Name); typ {
		case "repair":
			if cur != nil && cur.Repair == nil {
				cur.Repair = ev
			}
		case "recovered", "degraded":
			if cur != nil && cur.Outcome == nil {
				cur.Outcome = ev
			}
		}
	}
	return out
}

// InspectOptions bounds report verbosity.
type InspectOptions struct {
	// MaxLinks caps how many individual links each diff section lists
	// (0 = 8); counts are always exact.
	MaxLinks int
	// Context is how many events to print before each SLO breach (0 = 6).
	Context int
	// Events additionally dumps the full event log.
	Events bool
}

// WriteReport renders the postmortem report: recording header, per-slot
// topology diffs, failure sequences, SLO breaches with preceding
// context, and the final SLO status.
func (rec *Recording) WriteReport(w io.Writer, opt InspectOptions) error {
	if opt.MaxLinks <= 0 {
		opt.MaxLinks = 8
	}
	if opt.Context <= 0 {
		opt.Context = 6
	}
	bw := &reportWriter{w: w}
	events := rec.Events()

	bw.section("recording")
	epoch := time.UnixMicro(rec.EpochUS).UTC().Format(time.RFC3339)
	bw.printf("process %q, epoch %s\n", rec.Proc, epoch)
	bw.printf("%d slot snapshots, %d events, %d spans", len(rec.Slots), len(events), len(rec.Records)-len(events))
	if rec.Dropped > 0 {
		bw.printf(" (%d older records overwritten)", rec.Dropped)
	}
	if len(rec.Slots) > 0 && rec.Slots[0].Slot > 0 {
		bw.printf(" (%d older slots overwritten)", rec.Slots[0].Slot)
	}
	bw.printf("\n")
	if n := len(events); n > 0 {
		bw.printf("event span: t=%.3fs .. t=%.3fs\n",
			float64(events[0].StartUS)/1e6, float64(events[n-1].StartUS)/1e6)
	}
	bw.eventHistogram(events)

	bw.section("per-slot topology")
	for i := range rec.Slots {
		cur := &rec.Slots[i]
		kind := cur.Kind
		if kind == "" {
			kind = "compile"
		}
		bw.printf("slot %d (t=%.0fs, %s): %d inter, %d ring, %d cells covered, deficit %d",
			cur.Slot, cur.Time, kind, len(cur.InterLinks), len(cur.RingLinks),
			coveredCells(cur), cur.DeficitTotal())
		if cur.Enforcement > 0 {
			bw.printf(", enforcement %.2f", cur.Enforcement)
		}
		bw.printf("\n")
		if i == 0 {
			continue
		}
		d := DiffSlots(&rec.Slots[i-1], cur)
		if d.Churn() == 0 && len(d.CellsLost) == 0 && len(d.CellsGained) == 0 &&
			len(d.CellsShrunk) == 0 && d.DeficitDelta == 0 {
			bw.printf("  no change from slot %d\n", rec.Slots[i-1].Slot)
			continue
		}
		bw.linkDiff("  inter", d.Inter, opt.MaxLinks)
		bw.linkDiff("  ring ", d.Ring, opt.MaxLinks)
		if len(d.CellsLost) > 0 {
			bw.printf("  cells lost ALL coverage: %v\n", d.CellsLost)
		}
		if len(d.CellsGained) > 0 {
			bw.printf("  cells gained coverage: %v\n", d.CellsGained)
		}
		if len(d.CellsShrunk) > 0 {
			bw.printf("  cells with fewer satellites: %s\n", shrunkString(d.CellsShrunk))
		}
		if d.DeficitDelta != 0 {
			bw.printf("  gateway deficit %+d (now %d)\n", d.DeficitDelta, d.Cur.DeficitTotal())
		}
	}
	if len(rec.Slots) == 0 {
		bw.printf("(no slot snapshots recorded)\n")
	}

	seqs := rec.FailureSequences()
	bw.section("failure sequences")
	if len(seqs) == 0 {
		bw.printf("(no failures recorded)\n")
	}
	for i, s := range seqs {
		bw.printf("sequence %d:\n", i+1)
		for _, f := range s.Failures {
			bw.event("  ", &f)
		}
		if s.Repair != nil {
			bw.event("  ", s.Repair)
		} else {
			bw.printf("  (no repair recorded)\n")
		}
		if s.Outcome != nil {
			bw.event("  ", s.Outcome)
		}
	}

	bw.section("SLO breaches")
	breaches := 0
	for i := range events {
		ev := &events[i]
		if ev.Name != EventName(CompSLO, "slo_breach") {
			continue
		}
		breaches++
		bw.printf("breach %d: rule %s (%s) value %s at t=%.3fs\n",
			breaches, ev.Attrs["rule"], ev.Attrs["expr"], ev.Attrs["value"],
			float64(ev.StartUS)/1e6)
		for j := max(i-opt.Context, 0); j < i; j++ {
			bw.event("  ↳ preceded by ", &events[j])
		}
	}
	if breaches == 0 {
		bw.printf("(none)\n")
	}

	if len(rec.SLO) > 0 {
		bw.section("final SLO status")
		for _, st := range rec.SLO {
			state := "ok"
			if st.Breached {
				state = "BREACHED"
			}
			bw.printf("%-24s %-10s value=%s (breaches: %d)\n",
				st.Rule.Expr(), state, formatValue(st.Value), st.Breaches)
		}
	}

	if opt.Events {
		bw.section("event log")
		for i := range events {
			bw.event("", &events[i])
		}
	}
	return bw.err
}

func coveredCells(s *SlotState) int {
	n := 0
	for _, sats := range s.CellSats {
		if len(sats) > 0 {
			n++
		}
	}
	return n
}

func shrunkString(m map[int]int) string {
	cells := make([]int, 0, len(m))
	for u := range m {
		cells = append(cells, u)
	}
	sort.Ints(cells)
	parts := make([]string, len(cells))
	for i, u := range cells {
		parts[i] = fmt.Sprintf("%d(%d)", u, m[u])
	}
	return strings.Join(parts, " ")
}

func formatValue(v float64) string {
	if v != v { // NaN
		return "-"
	}
	return fmt.Sprintf("%g", v)
}

// reportWriter accumulates the first write error so report code stays
// linear.
type reportWriter struct {
	w   io.Writer
	err error
}

func (b *reportWriter) printf(format string, args ...any) {
	if b.err == nil {
		_, b.err = fmt.Fprintf(b.w, format, args...)
	}
}

func (b *reportWriter) section(title string) {
	b.printf("== %s ==\n", title)
}

// eventHistogram prints a count of the events by name.
func (b *reportWriter) eventHistogram(events []obs.Event) {
	if len(events) == 0 {
		return
	}
	counts := map[string]int{}
	for i := range events {
		counts[events[i].Name]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.printf("events by type:")
	for _, k := range keys {
		b.printf(" %s×%d", k, counts[k])
	}
	b.printf("\n")
}

func (b *reportWriter) event(prefix string, ev *obs.Event) {
	b.printf("%st=%8.3fs  %s", prefix, float64(ev.StartUS)/1e6, ev.Name)
	if len(ev.Attrs) > 0 {
		b.printf(" %s", obs.AttrString(ev.Attrs))
	}
	b.printf("\n")
}

func (b *reportWriter) linkDiff(label string, d SlotDelta, maxLinks int) {
	if d.Size() == 0 {
		return
	}
	b.printf("%s +%d -%d", label, len(d.Added), len(d.Removed))
	if len(d.Added) > 0 {
		b.printf("  added %s", linksString(d.Added, maxLinks))
	}
	if len(d.Removed) > 0 {
		b.printf("  removed %s", linksString(d.Removed, maxLinks))
	}
	b.printf("\n")
}

func linksString(ls [][2]int, maxLinks int) string {
	var b strings.Builder
	for i, l := range ls {
		if i == maxLinks {
			fmt.Fprintf(&b, " …+%d", len(ls)-maxLinks)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", l[0], l[1])
	}
	return b.String()
}
