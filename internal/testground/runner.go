package testground

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
)

// ExecConfig parameterizes a run.
type ExecConfig struct {
	// CtlBin / SatBin are the binaries to launch (default: resolved from
	// PATH as "tinyleo-ctl" / "tinyleo-sat").
	CtlBin string
	SatBin string
	// Dir is the run directory artifacts land in (required, must exist).
	Dir string
	// Log receives orchestration progress lines (nil = discard).
	Log io.Writer
	// CtlTimeout bounds how long to wait for the controller process
	// after launch (0 = derived from the plan: run_for + hold + 120 s).
	CtlTimeout time.Duration
}

// proc is one launched agent process with its reaper.
type proc struct {
	cmd  *exec.Cmd
	done chan error // closed by the reaper with Wait's result
	log  *os.File
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// RunExec executes a plan: one real tinyleo-ctl, N real
// tinyleo-sat processes over the real TCP southbound, coordinated
// through the sync service, faults injected by signaling the agent
// processes on schedule, artifacts collected into cfg.Dir, and the run
// scored with the plan's SLO rules over the final fleet snapshot plus
// the controller's last telemetry sweep.
func RunExec(m *Manifest, cfg ExecConfig) (*RunReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("testground: ExecConfig.Dir is required")
	}
	if cfg.CtlBin == "" {
		cfg.CtlBin = "tinyleo-ctl"
	}
	if cfg.SatBin == "" {
		cfg.SatBin = "tinyleo-sat"
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.CtlTimeout == 0 {
		cfg.CtlTimeout = time.Duration(m.RunForS+m.HoldS)*time.Second + 120*time.Second
	}
	start := time.Now()

	// Sync service: the controller publishes its bound addresses, the
	// agents rendezvous at the start barrier.
	coord := NewSync()
	coord.Define(BarrierAgentsReady, m.Agents)
	if err := coord.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer coord.Close()
	fmt.Fprintf(cfg.Log, "sync service on %s\n", coord.URL())

	// Controller.
	ctl, err := launch(cfg.CtlBin, cfg.Dir, "ctl",
		"-listen", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-sync", coord.URL(),
		"-agents", fmt.Sprint(m.Agents),
		"-slots", fmt.Sprint(m.Slots),
		"-dt", fmt.Sprint(m.SlotSeconds),
		"-hold", fmt.Sprintf("%gs", m.HoldS),
		"-fleet-lag", fmt.Sprintf("%gs", m.FleetLagS),
		"-fleet-silent", fmt.Sprintf("%gs", m.FleetSilentS),
		"-fleet-out", filepath.Join(cfg.Dir, "fleet.json"),
		"-record-out", filepath.Join(cfg.Dir, "ctl-flight.jsonl.gz"),
		"-planes", fmt.Sprint(m.Constellation.Planes),
		"-sats-per-plane", fmt.Sprint(m.Constellation.SatsPerPlane),
		"-inclination", fmt.Sprint(m.Constellation.InclinationDeg),
		"-altitude-km", fmt.Sprint(m.Constellation.AltitudeKm),
		"-phasing", fmt.Sprint(m.Constellation.PhasingF),
	)
	if err != nil {
		return nil, err
	}
	defer ctl.log.Close()
	fmt.Fprintf(cfg.Log, "controller launched (pid %d)\n", ctl.cmd.Process.Pid)

	kill := func(p *proc) {
		if !p.exited() {
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	defer kill(ctl)

	ctlAddr, err := coord.WaitParam(ParamControllerAddr, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w (controller log: %s)", err, ctl.log.Name())
	}
	metricsAddr, err := coord.WaitParam(ParamMetricsAddr, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w (controller log: %s)", err, ctl.log.Name())
	}
	fmt.Fprintf(cfg.Log, "controller southbound %s, telemetry %s\n", ctlAddr, metricsAddr)
	poller := newMetricsPoller(metricsAddr, 250*time.Millisecond)
	defer poller.Stop()

	// Agents. Each resolves the controller address through the sync
	// service and blocks at the start barrier before dialing, so the
	// whole fleet registers together.
	sats := make([]*proc, m.Agents)
	defer func() {
		for _, p := range sats {
			if p != nil {
				kill(p)
				p.log.Close()
			}
		}
	}()
	for i := 0; i < m.Agents; i++ {
		sats[i], err = launch(cfg.SatBin, cfg.Dir, fmt.Sprintf("sat-%d", i),
			"-sync", coord.URL(),
			"-id", fmt.Sprint(i),
			"-run-for", fmt.Sprintf("%gs", m.RunForS),
			"-fleet-interval", fmt.Sprintf("%dms", m.FleetIntervalMS),
			"-record-out", filepath.Join(cfg.Dir, fmt.Sprintf("sat-%d-flight.jsonl.gz", i)),
		)
		if err != nil {
			return nil, err
		}
	}
	if err := coord.WaitReleased(BarrierAgentsReady, 60*time.Second); err != nil {
		return nil, fmt.Errorf("%w (controller log: %s)", err, ctl.log.Name())
	}
	t0 := time.Now()
	fmt.Fprintf(cfg.Log, "%d agents through the start barrier\n", m.Agents)

	// Fault schedule: sleep to each fault's offset from the start
	// barrier and signal the target agent process.
	faultDone := make(chan []FaultRecord, 1)
	//tinyleo:goroutine exits on its own after delivering the finite fault schedule and signalling faultDone
	go func() {
		faults := append([]FaultSpec(nil), m.Faults...)
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].AtS < faults[j].AtS })
		records := make([]FaultRecord, 0, len(faults))
		for _, f := range faults {
			time.Sleep(time.Until(t0.Add(time.Duration(f.AtS * float64(time.Second)))))
			rec := FaultRecord{AtS: f.AtS, Kind: f.Kind, Agent: f.Agent}
			if err := signalFault(sats[f.Agent], f.Kind); err != nil {
				rec.Err = err.Error()
			}
			fmt.Fprintf(cfg.Log, "fault +%gs: %s agent %d %s\n", f.AtS, f.Kind, f.Agent, rec.Err)
			records = append(records, rec)
		}
		faultDone <- records
	}()

	// The controller owns the run's length: slots, then -hold.
	var runErr error
	select {
	case err := <-ctl.done:
		if err != nil {
			runErr = fmt.Errorf("controller exited: %v (log: %s)", err, ctl.log.Name())
		}
	case <-time.After(cfg.CtlTimeout):
		runErr = fmt.Errorf("controller still running after %s; killed (log: %s)", cfg.CtlTimeout, ctl.log.Name())
		kill(ctl)
	}
	fmt.Fprintf(cfg.Log, "controller done after %.1fs\n", time.Since(t0).Seconds())
	faults := <-faultDone
	poller.Stop()

	// Reap survivors: graceful first so they flush their recordings.
	for i, p := range sats {
		if p.exited() {
			continue
		}
		_ = p.cmd.Process.Signal(syscall.SIGCONT) // un-wedge stopped agents
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			fmt.Fprintf(cfg.Log, "agent %d ignored SIGTERM; killing\n", i)
			kill(p)
		}
	}

	// Fleet snapshot: the controller's exit-time artifact, falling back
	// to the poller's last /fleet sweep if the controller died badly.
	view, err := fleet.ReadViewFile(filepath.Join(cfg.Dir, "fleet.json"))
	if err != nil {
		if view = poller.View(); view == nil {
			if runErr == nil {
				runErr = fmt.Errorf("no fleet snapshot: %v", err)
			}
			view = &fleet.View{}
		} else if werr := view.WriteFile(filepath.Join(cfg.Dir, "fleet.json")); werr != nil {
			return nil, werr
		}
	}
	if err := poller.WriteRaw(filepath.Join(cfg.Dir, "ctl-metrics.json")); err != nil {
		fmt.Fprintf(cfg.Log, "%v\n", err)
	}

	run := &RunReport{Plan: *m, Faults: faults, Fleet: rollupFrom(view.Summary())}
	if err := run.Score(scoreSamples(view, poller.Samples()), nil); err != nil {
		return nil, err
	}
	if runErr != nil {
		run.Err = runErr.Error()
		run.Passed = false
	}
	run.WallElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if run.Artifacts, err = inventory(cfg.Dir); err != nil {
		return nil, err
	}
	return run, nil
}

// launch starts one process with stdout+stderr teed into NAME.log in
// the run directory and a reaper goroutine feeding its done channel.
func launch(bin, dir, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("testground: launch %s: %w", name, err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1), log: logf}
	//tinyleo:goroutine reaper exits as soon as the child process does
	go func() {
		p.done <- cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// signalFault delivers one fault to an agent process.
func signalFault(p *proc, kind string) error {
	if p.exited() {
		return fmt.Errorf("agent already exited")
	}
	switch kind {
	case FaultKill:
		return p.cmd.Process.Kill()
	case FaultTerm:
		return p.cmd.Process.Signal(syscall.SIGTERM)
	case FaultStop:
		return p.cmd.Process.Signal(syscall.SIGSTOP)
	case FaultCont:
		return p.cmd.Process.Signal(syscall.SIGCONT)
	}
	return fmt.Errorf("unknown fault kind %q", kind)
}

// scoreSamples builds the scoring sample set: the fleet
// snapshot's summary series, then its fleet-wide totals, then the
// controller's own series. A name an earlier source carries shadows the
// later ones (the live rollup exports most summary series too, and counter
// sums must not double), and per-agent split series are dropped.
func scoreSamples(view *fleet.View, ctlSamples []obs.Sample) []obs.Sample {
	out := view.Summary().Samples()
	for _, src := range [][]obs.Sample{view.Totals, ctlSamples} {
		have := make(map[string]bool, len(out))
		for _, s := range out {
			have[s.Name] = true
		}
		for _, s := range src {
			if !have[s.Name] && s.Labels["agent"] == "" {
				out = append(out, s)
			}
		}
	}
	return out
}
