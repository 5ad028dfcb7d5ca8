package main

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/southbound"
)

// enforce-churn replays a compiled plan with heavy link churn; per cycle it
// re-syncs resyncShare of the satellites and repairs repairsPerCycle links.
const (
	churnDt         = 300.0
	resyncShare     = 0.05
	repairsPerCycle = 5
	// checkEvery samples the per-agent peer-set comparison.
	checkEvery = 10
	// churnHeapCycles is the number of replayed cycles after which the live
	// heap is taken (a fixed point, however many cycles the run completes).
	churnHeapCycles = 10
)

// churnBed is the enforce-churn system under test: the control bed plus the
// compiled plan it replays cyclically (plan[0] is the enforced snapshot).
type churnBed struct {
	*controlBed
	plan []*mpc.Snapshot
	// repairReq hands the driver's operation to the controller's failure
	// hook; repairDone returns what the hook did.
	repairReq  chan repairReq
	repairDone chan repairResult
}

type repairReq struct {
	root obs.SpanContext
	op   int
}

type repairResult struct {
	repaired *mpc.Snapshot
	failed   mpc.Link
	compute  time.Duration
	cmds     int
	err      error
}

func newChurnBed(r *run, sats, slots int) (*churnBed, error) {
	cb, err := newControlBed(chaos.TestbedConfig{Sats: sats}, churnDt)
	if err != nil {
		return nil, err
	}
	b := &churnBed{controlBed: cb, plan: []*mpc.Snapshot{cb.snap},
		repairReq: make(chan repairReq, 1), repairDone: make(chan repairResult, 1)}
	for len(b.plan) < slots {
		cb.slot++
		b.plan = append(b.plan, cb.tb.Ctl.DeltaCompile(b.plan[len(b.plan)-1], float64(cb.slot)*churnDt))
	}
	// The agent→controller path: a failure report reaches this hook on the
	// controller's connection goroutine, which repairs the enforced
	// snapshot and pushes the repair diff itself; the driver, blocked on
	// repairDone, then waits for the acks.
	cb.pl.ctl.OnFailure = func(m *southbound.Message) []*southbound.Message {
		req := <-b.repairReq
		res := repairResult{failed: mpc.MakeLink(int(m.SatID), int(m.Peer))}
		res.compute = r.layer(req.root, req.op, "mpc.repair", func() {
			res.repaired, _ = cb.tb.Ctl.Repair(cb.snap, []mpc.Link{res.failed}, nil, 0)
		})
		r.layer(req.root, req.op, "mpc.diff_links", func() {
			cb.added, cb.removed = mpc.DiffLinks(cb.snap, res.repaired)
		})
		r.layer(req.root, req.op, "southbound.push", func() {
			res.cmds, res.err = cb.pl.push(cb.added, cb.removed, nil)
		})
		b.repairDone <- res
		return nil
	}
	return b, nil
}

// runEnforceChurn keeps the southbound busy and the MPC nearly idle: cyclic
// replay of a compiled plan, with re-syncs and agent-reported repairs.
func (r *run) runEnforceChurn() error {
	sz := r.opt.size
	b, err := setup(r, func() (*churnBed, error) { return newChurnBed(r, sz.churnSats, sz.churnSlots) },
		func(b *churnBed) { b.close() })
	if err != nil {
		return err
	}
	defer b.close()

	var replays []slotSample
	var replayMS, repairMS, repairUS []float64
	var cmds float64
	at := 0 // index in the plan of the enforced snapshot
	r.startTimed()
	for r.more() {
		at = (at + 1) % len(b.plan)
		var resync []int
		if at == 0 {
			// A new cycle: a seeded share of the satellites lose delta
			// eligibility and get a full snapshot on their next push.
			for _, s := range r.rng.Perm(len(b.tb.Sats))[:int(resyncShare*float64(len(b.tb.Sats)))] {
				b.pl.enf.MarkUnsynced(uint32(s))
				resync = append(resync, s)
			}
		}
		var s slotSample
		ms := r.op("op.replay", func(root obs.SpanContext, op int) {
			err = r.pushAndWait(&b.enforced, root, op, b.plan[at], resync, &s)
		})
		if err != nil {
			return err
		}
		r.attempted++
		replays = append(replays, s)
		replayMS = append(replayMS, ms)
		cmds += float64(s.cmds)
		if len(replays)%checkEvery == 0 {
			r.checkPlane(&b.enforced, fmt.Sprintf("replay %d", len(replays)))
		}
		if len(replays) == churnHeapCycles*len(b.plan) {
			r.heapMark()
		}

		if every := max(len(b.plan)/repairsPerCycle, 1); at%every != every/2 || len(b.snap.InterLinks) == 0 {
			continue
		}
		// A seeded agent reports one of its inter-cell links failed.
		victim := b.snap.InterLinks[r.rng.Intn(len(b.snap.InterLinks))]
		var res repairResult
		ms = r.op("op.repair", func(root obs.SpanContext, op int) {
			b.repairReq <- repairReq{root, op}
			if err = b.pl.agents[victim[0]].a.ReportFailure(uint32(victim[1])); err != nil {
				<-b.repairReq
				return
			}
			res = <-b.repairDone
			if err = res.err; err == nil {
				r.layer(root, op, "southbound.ack_wait", func() { err = b.pl.awaitAcks() })
			}
		})
		if err != nil {
			return err
		}
		r.attempted++
		b.snap = res.repaired
		repairMS = append(repairMS, ms)
		repairUS = append(repairUS, float64(res.compute)/1e3)
		cmds += float64(res.cmds)
		if res.failed != victim || res.repaired.LinkSet()[victim] {
			r.fail("repair %d: failed link %v still in the repaired snapshot (reported %v)", len(repairMS), victim, res.failed)
		}
		r.checkPlane(&b.enforced, fmt.Sprintf("repair %d", len(repairMS)))
	}
	r.finish()

	r.led.ratio("enforce_cmds_per_s", cmds, sum(r.latencies())/1e3, len(replays)+len(repairMS))
	r.led.median("slot_latency_ms_p50", replayMS)
	r.led.percentile("slot_latency_ms_p95", replayMS, 95)
	r.led.ratio("slots_per_s", float64(len(replayMS)), sum(replayMS)/1e3, len(replayMS))
	r.led.median("repair_latency_ms_p50", repairMS)
	r.led.percentile("repair_latency_ms_p95", repairMS, 95)
	r.led.median("mpc.repair_us_p50", repairUS)
	r.led.set("mpc.enforcement_ratio", b.tb.Ctl.EnforcementRatio(b.plan[0]), 1)
	r.planeLedger(b.pl, replays, len(b.plan))
	if r.sp != nil {
		r.isolatedSouthboundCodec(b.added, b.removed)
	}
	return nil
}
