package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/orbit"
	"repro/internal/texture"
)

const (
	planEpsilon = 0.99
	// planJitter is the seeded per-cell demand jitter (±).
	planJitter = 0.10
	// surgeRadiusDeg is the angular radius of the regional surge.
	surgeRadiusDeg = 15.0
	// planCtlSlots control slots are compiled and enforced per loop.
	planCtlSlots = 8
	planCtlDt    = 30.0
	// planFlowPairs candidate cell pairs are probed for the loop's traffic.
	planFlowPairs = 64
)

// planInputs are loop-plan's seeded inputs; every loop of a run plans for
// the same ones.
type planInputs struct {
	size sizing
	grid *geo.Grid
	// jitter scales each cell's demand; surge is the unfolded extra demand
	// of the regional surge the plan is expanded by.
	jitter, surge []float64
	flowSeed      int64
}

func newPlanInputs(seed int64, sz sizing) *planInputs {
	rng := rand.New(rand.NewSource(seed))
	g := geo.MustGrid(sz.planGridDeg)
	m := g.NumCells()
	in := &planInputs{size: sz, grid: g, jitter: make([]float64, m), surge: make([]float64, sz.planSlots*m), flowSeed: rng.Int63()}
	for i := range in.jitter {
		in.jitter[i] = 1 + planJitter*(2*rng.Float64()-1)
	}
	// The surge sits in the latitude band every inclination family covers.
	centre := geom.LatLon{Lat: -50 + 100*rng.Float64(), Lon: -180 + 360*rng.Float64()}
	region := g.CellsWithin(centre, geom.Deg2Rad(surgeRadiusDeg))
	for t := 0; t < sz.planSlots; t++ {
		for _, c := range region {
			in.surge[t*m+c] = sz.planSurgeUnits / float64(len(region))
		}
	}
	return in
}

// planStages is what the ledger keeps of one loop: per-stage host seconds
// and the counts the stages returned.
type planStages struct {
	build, synth, sparsify, expand, verify, realize, intentBuild, network float64
	coldMS                                                                float64
	slots                                                                 []slotSample
	tracks, nnz, iterations, pruned, satellites                           int
	avail                                                                 float64
	fwdNS                                                                 float64
}

// planProducts is what a loop leaves behind. It is held until the loop's
// checks and the live-heap mark are done.
type planProducts struct {
	lib   *texture.Library
	res   *core.Result
	sats  []orbit.Elements
	topo  *intent.Topology
	ctl   *mpc.Controller
	snaps []*mpc.Snapshot
	enf   enforced
	tr    *traffic
}

// planOnce runs the whole loop once: plan, realize, compile and enforce a few
// slots, forward traffic over the last one.
func (r *run) planOnce(in *planInputs, root obs.SpanContext, op int, pr *planProducts) (planStages, error) {
	sz := in.size
	var st planStages
	var err error
	sec := func(name string, f func()) float64 { return r.layer(root, op, name, f).Seconds() }

	st.build = sec("texture.build", func() {
		pr.lib, err = texture.Build(texture.Config{
			Grid: in.grid, Slots: sz.planSlots, RAANs: sz.planRAANs, Phases: 4,
			Specs: orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3),
		})
	})
	if err != nil {
		return st, err
	}
	st.tracks, st.nnz = pr.lib.NumTracks(), pr.lib.NNZ()

	var base []float64
	st.synth = sec("demand.synth", func() {
		d := demand.StarlinkCustomers(demand.ScenarioOptions{
			Grid: in.grid, Slots: sz.planSlots, SlotSeconds: pr.lib.SlotSeconds,
			TotalSatUnits: sz.planUnits, Diurnal: &demand.DefaultDiurnal,
		})
		m := in.grid.NumCells()
		for k := range d.Y {
			d.Y[k] *= in.jitter[k%m]
		}
		base = d.Y
	})

	problem := core.Problem{Library: pr.lib, Demand: base, Epsilon: planEpsilon}
	var first *core.Result
	st.sparsify = sec("core.sparsify", func() { first, err = core.Sparsify(problem) })
	if err != nil {
		return st, fmt.Errorf("sparsify: %w", err)
	}
	st.expand = sec("core.expand", func() { pr.res, err = core.Expand(problem, first, in.surge) })
	if err != nil {
		return st, fmt.Errorf("expand: %w", err)
	}
	st.verify = sec("core.verify", func() {
		total := make([]float64, len(base))
		for k := range base {
			total[k] = base[k] + in.surge[k]
		}
		st.avail = core.Verify(pr.lib, pr.res.X, total)
	})
	st.iterations, st.pruned = first.Iterations+pr.res.Iterations, first.Pruned+pr.res.Pruned
	st.satellites = pr.res.Satellites

	st.realize = sec("experiments.realize", func() { pr.sats = experiments.RealizeConstellation(pr.lib, pr.res) })
	st.intentBuild = sec("intent.build", func() {
		supply := baseline.Supply(baseline.SupplyConfig{
			Grid: in.grid, Slots: sz.planSlots, SlotSeconds: pr.lib.SlotSeconds, SubSamples: 1,
			Coverage: pr.lib.Coverage, CountSatellites: true,
		}, pr.sats)
		pr.topo = intent.MeshIntent(in.grid, intent.GuaranteedFromSupply(in.grid, sz.planSlots, supply), 3, 1)
	})
	if len(pr.topo.Cells()) < 2 || len(pr.topo.Edges) == 0 {
		return st, errors.New("the planned constellation guarantees no mesh intent")
	}

	// Control: cold compile, then delta compiles, each slot enforced to one
	// agent per satellite before the next is compiled.
	sec("mpc.new", func() { pr.ctl, err = mpc.New(mpc.Config{Topo: pr.topo, Sats: pr.sats, Coverage: pr.lib.Coverage}) })
	if err != nil {
		return st, err
	}
	sec("southbound.dial", func() { pr.enf.pl, err = newPlane(len(pr.sats)) })
	if err != nil {
		return st, err
	}
	for k := 0; k < planCtlSlots; k++ {
		var s slotSample
		var next *mpc.Snapshot
		name := "mpc.delta_compile"
		if k == 0 {
			name = "mpc.cold_compile"
		}
		d := r.layer(root, op, name, func() { next = pr.ctl.DeltaCompile(pr.enf.snap, float64(k)*planCtlDt) })
		if k == 0 {
			st.coldMS = float64(d) / 1e6
		} else {
			s.compile = d
		}
		if err := r.pushAndWait(&pr.enf, root, op, next, nil, &s); err != nil {
			return st, err
		}
		pr.snaps = append(pr.snaps, next)
		st.slots = append(st.slots, s)
	}

	// Forward: geo-segment packets over the last compiled topology.
	st.network = sec("experiments.network_build", func() {
		pr.tr = newTraffic(experiments.NetworkFromSnapshot(pr.enf.snap, pr.sats), r.opt.trace)
	})
	sec("dataplane.pick_flows", func() {
		// Over a sparsified constellation the compiled topology realizes
		// only part of the mesh intent, so routes are planned over the
		// inter-cell links the snapshot has.
		realized := intent.NewTopology(in.grid)
		for _, l := range pr.enf.snap.InterLinks {
			if a, b := pr.tr.net.Sats[l[0]], pr.tr.net.Sats[l[1]]; a != nil && b != nil && a.Cell != b.Cell {
				realized.AddCell(a.Cell, 1)
				realized.AddCell(b.Cell, 1)
				realized.Connect(a.Cell, b.Cell, 1)
			}
		}
		rng := rand.New(rand.NewSource(in.flowSeed))
		cells := realized.Cells()
		pairs := make([][2]int, planFlowPairs)
		for i := range pairs {
			// The realized graph is fragmented: a destination is a short
			// seeded walk away from its source, so that it is reachable.
			src := cells[rng.Intn(len(cells))]
			dst := src
			for steps := 1 + rng.Intn(4); steps > 0; steps-- {
				next := realized.Neighbors(dst)
				dst = next[rng.Intn(len(next))]
			}
			pairs[i] = [2]int{src, dst}
		}
		pr.tr.pickFlows(realized, pr.enf.snap, pairs)
	})
	if len(pr.tr.flows) == 0 {
		return st, errors.New("no deliverable flow over the planned constellation")
	}
	order := make([]int, len(pr.tr.flows))
	for i := range order {
		order[i] = i
	}
	for seq := 0; seq < sz.planPackets; seq += burstPackets {
		st.fwdNS += float64(r.layer(root, op, "dataplane.inject", func() { err = pr.tr.burst(order, uint32(seq)) }))
		if err != nil {
			return st, err
		}
		st.fwdNS += float64(r.layer(root, op, "netem.run", pr.tr.advance))
	}
	st.fwdNS += float64(r.layer(root, op, "netem.run", pr.tr.drain))
	return st, nil
}

// checkPlan counts the loop's violated invariants as failed operations.
func (r *run) checkPlan(st planStages, pr *planProducts, compareCompiles bool) {
	r.attempted += 1 + int64(len(pr.snaps)) + pr.tr.injected
	if st.avail < planEpsilon-1e-12 {
		r.fail("plan availability %.6f below ε = %v", st.avail, planEpsilon)
	}
	total := 0
	for _, x := range pr.res.X {
		total += x
	}
	if total != pr.res.Satellites || len(pr.sats) != total {
		r.fail("plan has Σx = %d, ‖x‖₁ = %d, %d realized satellites", total, pr.res.Satellites, len(pr.sats))
	}
	r.checkPlane(&pr.enf, "last planned slot")
	if pr.tr.delivered != pr.tr.injected {
		r.fail("delivered %d of %d packets over the planned constellation", pr.tr.delivered, pr.tr.injected)
	}
	if pr.tr.revisits > 0 {
		r.fail("%d delivered packets visited a satellite twice", pr.tr.revisits)
	}
	if !compareCompiles {
		return
	}
	// The delta chain must equal compiles from scratch on a controller that
	// has seen no other slot.
	fresh, err := mpc.New(mpc.Config{Topo: pr.topo, Sats: pr.sats, Coverage: pr.lib.Coverage})
	if err != nil {
		r.fail("fresh controller: %v", err)
		return
	}
	for k := 0; k < len(pr.snaps) && k < 5; k++ {
		if !reflect.DeepEqual(fresh.Compile(float64(k)*planCtlDt), pr.snaps[k]) {
			r.fail("slot %d: delta compile differs from a compile from scratch", k)
		}
	}
}

// runLoopPlan is the planner's journey: the whole loop, planning-dominated,
// on a sparsified (not Walker) constellation with a cold compile. Its user
// pays every stage on every run, so every stage is in the timed loop; set-up
// generates the seeded inputs and runs one whole loop at the smoke sizing,
// which lets the process-wide lazy state (land mask, city weights) and the
// allocator settle. The warm-up's outcome does not matter and is not checked.
func (r *run) runLoopPlan() error {
	in, err := setup(r, func() (*planInputs, error) {
		var warm planProducts
		_, _ = r.planOnce(newPlanInputs(r.opt.seed, smokeSize), obs.SpanContext{}, 0, &warm)
		if warm.enf.pl != nil {
			warm.enf.pl.close()
		}
		return newPlanInputs(r.opt.seed, r.opt.size), nil
	}, func(*planInputs) {})
	if err != nil {
		return err
	}

	var loops []planStages
	var pr *planProducts
	r.startTimed()
	for r.more() {
		pr = &planProducts{}
		var st planStages
		r.op("op.loop", func(root obs.SpanContext, op int) { st, err = r.planOnce(in, root, op, pr) })
		if err == nil {
			r.checkPlan(st, pr, len(loops) == 0)
			// The live heap is taken while the loop's products are held.
			r.heapMark()
		}
		if pr.enf.pl != nil {
			pr.enf.pl.close()
		}
		if err != nil {
			return err
		}
		loops = append(loops, st)
	}
	r.finish()

	col := func(f func(planStages) float64) []float64 {
		v := make([]float64, len(loops))
		for i, st := range loops {
			v[i] = f(st)
		}
		return v
	}
	last := loops[len(loops)-1]
	r.note("%d satellites planned, intent of %d cells and %d edges, %d flows over %d satellites and %d ISLs",
		last.satellites, len(pr.topo.Cells()), len(pr.topo.Edges), len(pr.tr.flows), len(pr.tr.net.Sats), len(pr.tr.net.Links()))
	planS := col(func(s planStages) float64 { return s.build + s.synth + s.sparsify + s.expand + s.verify })
	r.led.set("loop_wall_s", median(r.latencies())/1e3, len(loops))
	r.led.median("plan_s", planS)
	r.led.set("plan_satellites", float64(last.satellites), 1)
	r.led.median("texture.build_s", col(func(s planStages) float64 { return s.build }))
	r.led.set("texture.tracks", float64(last.tracks), 1)
	r.led.set("texture.nnz", float64(last.nnz), 1)
	r.led.median("demand.synth_ms", col(func(s planStages) float64 { return s.synth * 1e3 }))
	r.led.median("core.sparsify_s", col(func(s planStages) float64 { return s.sparsify }))
	r.led.median("core.expand_s", col(func(s planStages) float64 { return s.expand }))
	r.led.median("core.verify_ms", col(func(s planStages) float64 { return s.verify * 1e3 }))
	r.led.set("core.iterations", float64(last.iterations), 1)
	r.led.median("core.ms_per_iteration", col(func(s planStages) float64 {
		return (s.sparsify + s.expand) * 1e3 / float64(s.iterations)
	}))
	r.led.set("core.pruned", float64(last.pruned), 1)
	r.led.set("core.availability", last.avail, 1)
	r.led.median("intent.build_ms", col(func(s planStages) float64 { return s.intentBuild * 1e3 }))
	r.led.median("experiments.realize_ms", col(func(s planStages) float64 { return s.realize * 1e3 }))
	r.led.median("experiments.network_build_ms", col(func(s planStages) float64 { return s.network * 1e3 }))
	r.led.median("mpc.cold_compile_ms_p50", col(func(s planStages) float64 { return s.coldMS }))

	var slots []slotSample
	for _, st := range loops {
		slots = append(slots, st.slots...)
	}
	r.planeLedger(pr.enf.pl, slots, planCtlSlots)
	st := pr.ctl.CacheStats()
	r.led.set("orbit.cache_hit_ratio", st.HitRatio(), planCtlSlots)
	r.led.set("orbit.warm_hit_ratio", st.WarmHitRatio(), planCtlSlots)
	r.led.set("orbit.pruned_pairs", float64(st.PrunedPairs)/planCtlSlots, planCtlSlots)
	r.led.set("mpc.enforcement_ratio", pr.ctl.EnforcementRatio(pr.snaps[0]), 1)
	r.mpcReuseLedger()
	fwdNS := median(col(func(s planStages) float64 { return s.fwdNS }))
	c := pr.tr.ledger(r, fwdNS)
	r.led.ratio("dataplane.ns_per_hop_fast", fwdNS, c.hops(), len(loops))
	if r.sp != nil {
		r.isolatedSparse(pr.lib, pr.res.X)
		r.isolatedOrbit(pr.sats, pr.topo, pr.lib.Coverage)
		r.isolatedStablematch(pr.enf.snap)
		r.isolatedSouthboundCodec(pr.enf.added, pr.enf.removed)
		r.isolatedPacketCodec(pr.tr.flows[0])
	}
	return nil
}
