package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/southbound"
)

// FleetAggregation measures what the fleet telemetry plane costs the
// southbound command path (tinyleo-bench -run fleet): one controller,
// `agents` in-process agents applying `cmds` one-link changes pushed
// round-robin through a DeltaEnforcer over real loopback TCP, each agent
// bumping instruments in its private registry per command. The run
// executes twice — telemetry off, then on with every agent streaming its
// changed registry rows into a controller-side aggregator at a tight
// interval — and reports the wall-clock ratio as an explicit "overhead
// (x)" column. The telemetry-on phase also verifies the rollup: the
// aggregated applied counter must equal the commands delivered, or the
// experiment errors.
//
// This is a wall-clock benchmark of a real network path, not a
// deterministic computation; its numbers are excluded from any canonical
// output.
func FleetAggregation(agents, cmds int) (*metrics.Table, error) {
	if agents <= 0 {
		agents = 4
	}
	if cmds <= 0 {
		cmds = 2000
	}
	tab := metrics.NewTable("Fleet telemetry: aggregation overhead",
		"run", "agents", "commands", "wall (s)", "throughput (cmds/s)",
		"reports", "report bytes", "overhead (x)")
	baseWall := 0.0
	for _, telemetry := range []bool{false, true} {
		wall, reports, bytes, err := fleetPhase(agents, cmds, telemetry)
		if err != nil {
			return nil, err
		}
		name, overhead := "off", 1.0
		if telemetry {
			name = "on"
			if baseWall > 0 {
				overhead = wall / baseWall
			}
		} else {
			baseWall = wall
		}
		rate := 0.0
		if wall > 0 {
			rate = float64(cmds) / wall
		}
		tab.AddRow(name, agents, cmds, fmt.Sprintf("%.3f", wall),
			fmt.Sprintf("%.0f", rate), reports, bytes, fmt.Sprintf("%.2f", overhead))
	}
	return tab, nil
}

// fleetPhase runs one controller+agents command push and reports the
// wall time from first send to last ack plus the telemetry volume the
// aggregator absorbed (zero with telemetry off).
func fleetPhase(agents, cmds int, telemetry bool) (wall float64, reports, bytes uint64, err error) {
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer ctl.Close()
	enf := southbound.NewDeltaEnforcer(ctl)
	var agg *fleet.Aggregator
	if telemetry {
		agg = fleet.NewAggregator(fleet.Options{})
		ctl.OnTelemetry = func(sat uint32, payload []byte) {
			_ = agg.HandleReport(sat, payload)
		}
	}
	perAgent := make([]*obs.Counter, agents)
	for i := 0; i < agents; i++ {
		reg := obs.NewRegistry(true)
		c := reg.Counter("tinyleo_bench_applied_total")
		h := reg.Histogram("tinyleo_bench_apply_delay_s", nil)
		perAgent[i] = c
		a, err := southbound.DialAgent(ctl.Addr(), uint32(i), 5*time.Second)
		if err != nil {
			return 0, 0, 0, err
		}
		defer a.Close()
		a.OnCommand = func(m *southbound.Message) {
			c.Inc()
			h.Observe(0.001)
		}
		if telemetry {
			rep := fleet.NewReporter(fleet.NewEncoder(reg), a.SendTelemetry)
			rep.Run(2 * time.Millisecond)
			defer rep.Stop()
		}
	}
	//lint:tinyleo-ignore the measured wall time IS this experiment's result
	start := time.Now()
	for i := 0; i < cmds; i++ {
		// A new peer every time, so that every push is one message.
		if err := enf.Push(uint32(i%agents), []uint32{uint32(agents + i)}, nil, time.Time{}, obs.SpanContext{}); err != nil {
			return 0, 0, 0, err
		}
	}
	//lint:tinyleo-ignore ack-wait deadline on a real TCP benchmark path
	deadline := time.Now().Add(30 * time.Second)
	for ctl.PendingAcks() > 0 {
		//lint:tinyleo-ignore ack-wait deadline on a real TCP benchmark path
		if time.Now().After(deadline) {
			return 0, 0, 0, fmt.Errorf("fleet: %d commands never acked", ctl.PendingAcks())
		}
		//lint:tinyleo-ignore polling a real TCP benchmark path, not part of any deterministic output
		time.Sleep(200 * time.Microsecond)
	}
	//lint:tinyleo-ignore the measured wall time IS this experiment's result
	wall = time.Since(start).Seconds()

	if telemetry {
		// Settle: every agent's final report must land and the rollup must
		// agree exactly with the ground truth.
		want := int64(0)
		for _, c := range perAgent {
			want += c.Value()
		}
		rolled := func() int64 {
			for _, s := range agg.TotalsSamples() {
				if s.Name == "tinyleo_bench_applied_total" {
					return int64(s.Value)
				}
			}
			return -1
		}
		//lint:tinyleo-ignore telemetry-settle deadline on a real TCP benchmark path
		for deadline := time.Now().Add(10 * time.Second); rolled() != want; {
			//lint:tinyleo-ignore telemetry-settle deadline on a real TCP benchmark path
			if time.Now().After(deadline) {
				return 0, 0, 0, fmt.Errorf("fleet: rollup %d never converged to ground truth %d", rolled(), want)
			}
			//lint:tinyleo-ignore polling a real TCP benchmark path, not part of any deterministic output
			time.Sleep(time.Millisecond)
		}
		v := agg.View()
		sum := v.Summary()
		reports, bytes = sum.Reports, sum.Bytes
	}
	return wall, reports, bytes, nil
}
