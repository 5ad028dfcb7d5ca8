package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/mpc"
	"repro/internal/obs"
)

// enforced is a southbound plane and the snapshot it currently enforces.
type enforced struct {
	pl   *plane
	snap *mpc.Snapshot
	// added and removed are the last enforced change set.
	added, removed []mpc.Link
}

// enforce pushes the diff from the enforced snapshot to next and waits for
// the acks (the untimed form of pushAndWait).
func (e *enforced) enforce(next *mpc.Snapshot) error {
	e.added, e.removed = mpc.DiffLinks(e.snap, next)
	if _, err := e.pl.push(e.added, e.removed, nil); err != nil {
		return err
	}
	e.snap = next
	return e.pl.awaitAcks()
}

// controlBed is a control-plane system under test: a Walker testbed and one
// southbound agent per satellite. Slot k is compiled at time k·dt.
type controlBed struct {
	enforced
	dt   float64
	tb   *chaos.Testbed
	slot int
}

func (b *controlBed) close() { b.pl.close() }

// newControlBed builds the testbed, connects the agents, and compiles and
// enforces the first slots: slot 0 is the cold compile and the full-snapshot
// push to every gateway, slot 1 the first delta compile, which has no
// matching record to reuse. The testbed's τ sampling step (a fifth of
// cfg.SlotSeconds) should divide dt, so that consecutive slots sample pair
// visibility at bit-identical times and PropCache's warm path is exercised.
func newControlBed(cfg chaos.TestbedConfig, dt float64) (*controlBed, error) {
	tb, err := chaos.NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	pl, err := newPlane(len(tb.Sats))
	if err != nil {
		return nil, err
	}
	b := &controlBed{enforced: enforced{pl: pl}, dt: dt, tb: tb, slot: 1}
	if err = b.enforce(tb.Snap); err == nil {
		err = b.enforce(tb.Ctl.DeltaCompile(tb.Snap, dt))
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// slotSample is what one enforcement round measured; compile and diff stay
// zero where the round has no such stage.
type slotSample struct {
	compile, diff, push, wait time.Duration
	cmds, links, changed      int
	wire                      int64
}

// pushAndWait is the southbound half of an operation: one batch per changed
// satellite (and per satellite in also), then the wait for the last ack.
func (r *run) pushAndWait(b *enforced, root obs.SpanContext, op int, next *mpc.Snapshot, also []int, s *slotSample) error {
	var err error
	wire0 := b.pl.wireBytes()
	s.diff = r.layer(root, op, "mpc.diff_links", func() { b.added, b.removed = mpc.DiffLinks(b.snap, next) })
	s.push = r.layer(root, op, "southbound.push", func() { s.cmds, err = b.pl.push(b.added, b.removed, also) })
	if err != nil {
		return err
	}
	s.wait = r.layer(root, op, "southbound.ack_wait", func() { err = b.pl.awaitAcks() })
	b.snap = next
	s.links, s.changed = len(next.Links()), len(b.added)+len(b.removed)
	s.wire = b.pl.wireBytes() - wire0
	return err
}

// planeLedger records the control-plane figures a run of slots supports. The
// exact (bit-for-bit repeatable) wire bytes per slot are taken over the first
// exact slots only: a run measures for a fixed time, so the number of slots
// it completes varies.
func (r *run) planeLedger(pl *plane, slots []slotSample, exact int) {
	var pushUS, waitMS, compileMS, diffUS []float64
	var cmds, links, changed, wire float64
	for i, s := range slots {
		pushUS = append(pushUS, float64(s.push)/1e3)
		waitMS = append(waitMS, float64(s.wait)/1e6)
		diffUS = append(diffUS, float64(s.diff)/1e3)
		if s.compile > 0 {
			compileMS = append(compileMS, float64(s.compile)/1e6)
		}
		cmds += float64(s.cmds)
		links += float64(s.links)
		changed += float64(s.changed)
		if i < exact {
			wire += float64(s.wire)
		}
	}
	n := len(slots)
	r.led.ratio("wire_bytes_per_slot", wire, float64(min(n, exact)), min(n, exact))
	r.led.ratio("southbound.push_us_per_cmd", sum(pushUS), cmds, n)
	r.led.median("southbound.ack_wait_ms_p50", waitMS)
	r.led.ratio("southbound.cmds_per_slot", cmds, float64(n), n)
	r.led.ratio("mpc.links_per_slot", links, float64(n), n)
	r.led.ratio("mpc.links_changed_per_slot", changed, float64(n), n)
	r.led.median("mpc.diff_links_us_p50", diffUS)
	r.led.median("mpc.delta_compile_ms_p50", compileMS)
	r.led.percentile("mpc.delta_compile_ms_p95", compileMS, 95)

	sent := float64(pl.sent())
	r.led.ratio("southbound.tx_bytes_per_cmd", float64(pl.txBytes.Value()), sent, int(sent))
	r.led.ratio("southbound.snapshot_share", float64(pl.txSnap.Value()), sent, int(sent))
	r.led.ratio("southbound.ack_rtt_ms_mean", pl.ackRTT.Sum()*1e3, float64(pl.ackRTT.Count()), int(pl.ackRTT.Count()))
	r.led.set("southbound.retransmits", float64(pl.retransmits.Value()), int(sent))
	r.led.ratio("southbound.dial_ms_per_agent", pl.dialSeconds*1e3, float64(len(pl.agents)), len(pl.agents))
	if pl.retransmits.Value()+pl.timeouts.Value() > 0 {
		r.fail("southbound: %d retransmits, %d abandoned commands", pl.retransmits.Value(), pl.timeouts.Value())
	}
}

// checkPlane counts every mismatch between the agents and snap as a failed
// operation.
func (r *run) checkPlane(b *enforced, what string) {
	for _, bad := range b.pl.check(b.snap) {
		r.fail("%s: %s", what, bad)
	}
}

const (
	// controlSteadyDt is control-steady's slot; the testbed's SlotSeconds is
	// five times it, which makes the τ sampling step equal to the slot.
	controlSteadyDt = 30.0
	// controlExactSlots is the prefix wire_bytes_per_slot is taken over.
	controlExactSlots = 50
	// controlHeapSlot is the timed slot after which the live heap is taken:
	// the caches grow with every compiled slot, and a fixed slot keeps the
	// figure independent of how many slots the run completes.
	controlHeapSlot = 100
)

// runControlSteady is the operator's steady state: consecutive warm slots
// with no faults — delta compile, diff, per-satellite push, last ack.
func (r *run) runControlSteady() error {
	cfg := chaos.TestbedConfig{Sats: r.opt.size.controlSats, SlotSeconds: 5 * controlSteadyDt}
	b, err := setup(r, func() (*controlBed, error) { return newControlBed(cfg, controlSteadyDt) }, (*controlBed).close)
	if err != nil {
		return err
	}
	defer b.close()
	cache0 := b.tb.Ctl.CacheStats()

	var slots []slotSample
	// sampled keeps a few compiled slots to recompile from scratch below.
	type compiled struct {
		slot int
		snap *mpc.Snapshot
	}
	var sampled []compiled
	r.startTimed()
	for r.more() {
		b.slot++
		t := float64(b.slot) * b.dt
		var s slotSample
		r.op("op.slot", func(root obs.SpanContext, op int) {
			var next *mpc.Snapshot
			s.compile = r.layer(root, op, "mpc.delta_compile", func() { next = b.tb.Ctl.DeltaCompile(b.snap, t) })
			err = r.pushAndWait(&b.enforced, root, op, next, nil, &s)
		})
		if err != nil {
			return err
		}
		slots = append(slots, s)
		r.attempted++
		r.checkPlane(&b.enforced, fmt.Sprintf("slot %d", b.slot))
		if len(sampled) < 5 && len(slots)%7 == 1 {
			sampled = append(sampled, compiled{b.slot, b.snap})
		}
		if len(slots) == controlHeapSlot {
			r.heapMark()
		}
	}
	r.finish()

	all := r.latencies()
	r.led.median("slot_latency_ms_p50", all)
	r.led.percentile("slot_latency_ms_p95", all, 95)
	r.led.ratio("slots_per_s", float64(len(all)), sum(all)/1e3, len(all))
	r.planeLedger(b.pl, slots, controlExactSlots)
	st := b.tb.Ctl.CacheStats()
	r.led.set("orbit.cache_hit_ratio", st.HitRatio(), len(slots))
	r.led.ratio("orbit.warm_hit_ratio", float64(st.WarmSkips-cache0.WarmSkips), float64(st.WarmSamples-cache0.WarmSamples), len(slots))
	r.led.ratio("orbit.pruned_pairs", float64(st.PrunedPairs-cache0.PrunedPairs), float64(len(slots)), len(slots))
	r.mpcReuseLedger()

	// A delta compile must equal a compile from scratch: recompile the
	// sampled slots on a second testbed's controller, which has compiled
	// nothing but its own slot 0.
	fresh, err := chaos.NewTestbed(cfg)
	if err != nil {
		return err
	}
	var coldMS []float64
	for i, c := range sampled {
		t0 := time.Now()
		full := fresh.Ctl.Compile(float64(c.slot) * b.dt)
		coldMS = append(coldMS, float64(time.Since(t0))/1e6)
		if !reflect.DeepEqual(full, c.snap) {
			r.fail("slot %d: delta compile differs from a compile from scratch", c.slot)
		}
		if i == 0 {
			r.led.set("mpc.enforcement_ratio", fresh.Ctl.EnforcementRatio(full), 1)
		}
	}
	r.led.median("mpc.cold_compile_ms_p50", coldMS)
	if r.sp != nil {
		r.isolatedOrbit(b.tb.Sats, b.tb.Topo, testbedCoverage)
		r.isolatedStablematch(b.snap)
		r.isolatedSouthboundCodec(b.added, b.removed)
	}
	return nil
}
