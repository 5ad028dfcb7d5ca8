package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpc"
	"repro/internal/southbound"
	"repro/internal/tssdn"
)

// Figure16 demonstrates dynamic enforcement of a fixed geographic intent:
// the intent never changes while the compiled satellite topology evolves.
// Minute 0 counts every link of the testbed's snapshot as a change; each
// later slot is one Testbed.Advance.
func Figure16(scale Scale) ([]*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Figure 16: dynamic enforcement of a fixed geographic intent",
		"minute", "inter-cell ISLs", "ring ISLs", "enforcement", "ISL changes vs prev")
	for s := 0; s < scale.ControlSlots; s++ {
		t := float64(s) * scale.ControlDt
		var added, removed []mpc.Link
		if s == 0 {
			added, removed = mpc.DiffLinks(nil, tb.Snap)
		} else {
			added, removed = tb.Advance(t)
		}
		tab.AddRow(int(t/60), len(tb.Snap.InterLinks), len(tb.Snap.RingLinks),
			fmt.Sprintf("%.3f", tb.Ctl.EnforcementRatio(tb.Snap)), len(added)+len(removed))
	}
	meta := metrics.NewTable("Figure 16 (context)", "metric", "value")
	meta.AddRow("intent cells (fixed over the run)", len(tb.Topo.Cells()))
	meta.AddRow("intent edges (fixed over the run)", len(tb.Topo.Edges))
	meta.AddRow("satellites", len(tb.Sats))
	return []*metrics.Table{meta, tab}, nil
}

// Figure17 compares control-plane signaling: TinyLEO's MPC (topology-only
// commands, zero route updates thanks to geo segment anycast) versus
// TS-SDN with and without route aggregation on the same constellation.
func Figure17(scale Scale) ([]*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	plain, err := tssdn.New(tssdn.Config{Sats: tb.Sats})
	if err != nil {
		return nil, err
	}
	ra, err := tssdn.New(tssdn.Config{Sats: tb.Sats, RouteAggregation: true})
	if err != nil {
		return nil, err
	}

	perSlot := metrics.NewTable("Figure 17a-b: per-slot control-plane costs",
		"minute", "TS-SDN route updates", "TS-SDN+RA route updates", "TinyLEO route updates",
		"TS-SDN msgs", "TS-SDN+RA msgs", "TinyLEO msgs", "TinyLEO bytes")
	var totPlain, totRA, totTiny int64
	for s := 0; s < scale.ControlSlots; s++ {
		t := float64(s) * scale.ControlDt
		ps := plain.Step(t)
		rs := ra.Step(t)
		var added, removed []mpc.Link
		if s == 0 {
			added, removed = mpc.DiffLinks(nil, tb.Snap)
		} else {
			added, removed = tb.Advance(t)
		}
		tinyMsgs, tinyBytes := slotDeltaFrames(added, removed)
		perSlot.AddRow(int(t/60), ps.RouteUpdates, rs.RouteUpdates, 0,
			ps.Messages, rs.Messages, tinyMsgs, tinyBytes)
		totPlain += ps.Messages
		totRA += rs.Messages
		totTiny += tinyMsgs
	}
	summary := metrics.NewTable("Figure 17c: total signaling messages",
		"controller", "messages", "vs TinyLEO")
	rel := func(v int64) string {
		if totTiny == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(v)/float64(totTiny))
	}
	summary.AddRow("TS-SDN", totPlain, rel(totPlain))
	summary.AddRow("TS-SDN + RA", totRA, rel(totRA))
	summary.AddRow("TinyLEO", totTiny, "1x")
	return []*metrics.Table{perSlot, summary}, nil
}

// slotDeltaFrames counts what TinyLEO's enforcement sends for one slot's link
// diff: one MsgSlotDelta frame per touched satellite, and their framed bytes.
func slotDeltaFrames(added, removed []mpc.Link) (frames, bytes int64) {
	for _, b := range mpc.BatchBySatellite(added, removed) {
		ops := make([]southbound.SlotDeltaOp, 0, len(b.Del)+len(b.Add))
		for _, p := range b.Del {
			ops = append(ops, southbound.SlotDeltaOp{Peer: p})
		}
		for _, p := range b.Add {
			ops = append(ops, southbound.SlotDeltaOp{Peer: p, Up: true})
		}
		m := southbound.Message{Type: southbound.MsgSlotDelta, SatID: uint32(b.Sat), Payload: southbound.EncodeSlotDelta(ops)}
		frames++
		bytes += int64(m.WireSize())
	}
	return frames, bytes
}

// Figure17d measures repair time for randomly injected link failures:
// report RTT + MPC compute + instruction RTT (paper: 83.8 ms average,
// 83.5 ms of it RTT).
func Figure17d(scale Scale, failures int) (*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	ctl, snap := tb.Ctl, tb.Snap
	if len(snap.InterLinks) == 0 {
		return nil, fmt.Errorf("experiments: no links to fail")
	}
	rng := rand.New(rand.NewSource(7))
	var report, compute, instruct, total []float64
	cur := snap
	for i := 0; i < failures; i++ {
		if len(cur.InterLinks) == 0 {
			break
		}
		victim := cur.InterLinks[rng.Intn(len(cur.InterLinks))]
		// RTT model: satellite→ground controller round trip, 60–110 ms
		// uniformly (slant range + terrestrial backhaul), matching the
		// paper's measured 83.5 ms mean.
		rtt := time.Duration(60+rng.Float64()*50) * time.Millisecond
		next, stats := ctl.Repair(cur, []mpc.Link{victim}, nil, rtt)
		report = append(report, stats.ReportRTT.Seconds()*1e3)
		compute = append(compute, stats.ComputeTime.Seconds()*1e3)
		instruct = append(instruct, stats.InstructRTT.Seconds()*1e3)
		total = append(total, stats.Total().Seconds()*1e3)
		cur = next
	}
	tab := metrics.NewTable("Figure 17d: broken topology repair time (ms)",
		"component", "mean", "p50", "p99", "paper")
	row := func(name string, xs []float64, paper string) {
		s := metrics.Summarize(xs)
		tab.AddRow(name, fmt.Sprintf("%.2f", s.Mean), fmt.Sprintf("%.2f", s.P50),
			fmt.Sprintf("%.2f", s.P99), paper)
	}
	row("failure notification to MPC", report, "~41.75 (half RTT)")
	row("MPC compute time", compute, "~0.3")
	row("MPC instruction to satellites", instruct, "~41.75 (half RTT)")
	row("total", total, "83.8 avg")
	return tab, nil
}
