package main

import (
	"bytes"
	"time"

	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/orbit"
	"repro/internal/southbound"
	"repro/internal/stablematch"
	"repro/internal/texture"
)

// Layers that sit behind another layer's call get one isolated call on the
// run's own inputs, after the timed phase of a traced run.

// timeMedian runs f n times and returns the median host time of one run.
func timeMedian(n int, f func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// isolatedSparse times Library.Supply(x), the sparse product behind Verify.
func (r *run) isolatedSparse(lib *texture.Library, x []int) {
	nnz := 0
	for j, n := range x {
		if n > 0 {
			nnz += lib.TrackNNZ(j)
		}
	}
	d := timeMedian(5, func() { lib.Supply(x) })
	r.led.set("sparse.supply_ms", float64(d)/1e6, 5)
	r.led.ratio("sparse.ns_per_nnz", float64(d), float64(nnz), 5)
}

// isolatedOrbit times one slot's geometry — PropCache.Slot and Coverage —
// for sats over topo's cells, on a cache that has seen no other slot.
func (r *run) isolatedOrbit(sats []orbit.Elements, topo *intent.Topology, cov orbit.CoverageParams) {
	cells := topo.Cells()
	centers := make([]geom.LatLon, len(cells))
	for i, u := range cells {
		centers[i] = topo.Grid.Center(u)
	}
	radius := make([]float64, len(sats))
	for i, e := range sats {
		radius[i] = cov.FootprintRadius(e.Altitude())
	}
	pc := orbit.NewPropCache(sats, orbit.DefaultISLParams, 1800, 30)
	slot := 0
	d := timeMedian(20, func() {
		pc.Slot(float64(slot)*30).Coverage(centers, radius)
		slot++
	})
	r.led.set("orbit.slot_geom_ms", float64(d)/1e6, 20)
}

// isolatedStablematch times the two matchings on seeded instances the size
// of snap's cells: a cell's visible satellites proposing to its four
// neighbours, and two gateway sets matched one to one.
func (r *run) isolatedStablematch(snap *mpc.Snapshot) {
	visible, gateways := 0, 1
	for _, s := range snap.CellSats {
		visible += len(s)
	}
	visible = max(visible/max(len(snap.CellSats), 1), 1)
	for _, g := range snap.Gateways {
		gateways = max(gateways, len(g))
	}
	weights := func(n, m int) [][]float64 {
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				w[i][j] = r.rng.Float64()
			}
		}
		return w
	}
	transpose := func(w [][]float64) [][]float64 {
		t := make([][]float64, len(w[0]))
		for j := range t {
			t[j] = make([]float64, len(w))
			for i := range w {
				t[j][i] = w[i][j]
			}
		}
		return t
	}
	const runs = 200
	w := weights(visible, 4)
	d := timeMedian(runs, func() {
		rank := stablematch.RanksFromPrefs(stablematch.PrefsFromWeights(transpose(w), 0), visible)
		stablematch.ManyToOne(stablematch.PrefsFromWeights(w, 0), rank, []int{1, 1, 1, 1})
	})
	r.led.set("stablematch.many_to_one_us", float64(d)/1e3, runs)
	w = weights(gateways, gateways)
	d = timeMedian(runs, func() {
		rank := stablematch.RanksFromPrefs(stablematch.PrefsFromWeights(transpose(w), 0), gateways)
		stablematch.OneToOne(stablematch.PrefsFromWeights(w, 0), rank)
	})
	r.led.set("stablematch.one_to_one_us", float64(d)/1e3, runs)
}

// isolatedSouthboundCodec times WriteMessage + ReadMessage over the message
// mix of one recorded change set: a slot-delta batch per changed satellite.
func (r *run) isolatedSouthboundCodec(added, removed []mpc.Link) {
	sats, adds, dels := batches(added, removed, nil)
	var msgs []*southbound.Message
	for i, s := range sats {
		var ops []southbound.SlotDeltaOp
		for _, p := range dels[s] {
			ops = append(ops, southbound.SlotDeltaOp{Peer: p})
		}
		for _, p := range adds[s] {
			ops = append(ops, southbound.SlotDeltaOp{Peer: p, Up: true})
		}
		msgs = append(msgs, &southbound.Message{
			Type: southbound.MsgSlotDelta, SatID: uint32(s), Seq: uint32(i + 1),
			Payload: southbound.EncodeSlotDelta(ops),
		})
	}
	if len(msgs) == 0 {
		return
	}
	const runs = 200
	var buf bytes.Buffer
	bad := 0
	d := timeMedian(runs, func() {
		buf.Reset()
		for _, m := range msgs {
			if southbound.WriteMessage(&buf, m) != nil {
				bad++
			}
		}
		for range msgs {
			if _, err := southbound.ReadMessage(&buf); err != nil {
				bad++
			}
		}
	})
	if bad > 0 {
		r.fail("southbound codec: %d messages did not round-trip", bad)
	}
	r.led.set("southbound.codec_ns_per_msg", float64(d)/float64(len(msgs)), runs*len(msgs))
}

// isolatedPacketCodec times a packet's way to the ingress gateway —
// NewGeoPacket, Encode, Decode — on f's route with the workload's payload mix.
func (r *run) isolatedPacketCodec(f flow) {
	const pkts = 20000
	large := make([]byte, largePayload)
	bad := 0
	t0 := time.Now()
	for i := uint32(0); i < pkts; i++ {
		var payload []byte
		if i%2 == 1 {
			payload = large
		}
		if p, _, err := ingress(f, i, payload); err != nil || p.Base.Seq != i || len(p.Payload) != len(payload) {
			bad++
		}
	}
	d := time.Since(t0)
	if bad > 0 {
		r.fail("packet codec: %d packets did not round-trip", bad)
	}
	r.led.set("dataplane.codec_ns_per_pkt", float64(d)/pkts, pkts)
}

// The MPC's reuse counters live on the process-wide obs registry, which a
// traced run enables for its traced operations.
var (
	obsCellsReused    = obs.Default().Counter("tinyleo_mpc_delta_cells_total", "outcome", "reused")
	obsCellsRematched = obs.Default().Counter("tinyleo_mpc_delta_cells_total", "outcome", "rematched")
)

// mpcReuseLedger records the share of cells whose stage-1 matching the delta
// compiles of this run's traced operations replayed.
func (r *run) mpcReuseLedger() {
	reused := float64(obsCellsReused.Value() - r.reused0)
	total := reused + float64(obsCellsRematched.Value()-r.rematched0)
	r.led.ratio("mpc.cells_reused_ratio", reused, total, int(total))
}
