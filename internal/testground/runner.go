package testground

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cli"
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

// proc is one launched process with its reaper and its output watcher.
type proc struct {
	name  string
	cmd   *exec.Cmd
	done  chan struct{} // closed by the reaper once the process exited and its output is written
	err   error         // Wait's result, set before done closes
	log   *os.File
	watch *lineWatch
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// await returns the value of p's first line matching the announcement
// format (one of watched). p exiting first, or timeout passing, is an
// error that names p's log.
func (p *proc) await(format string, timeout time.Duration) (string, error) {
	i := slices.Index(watched[:], format)
	line := strings.TrimSuffix(format, "\n")
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-p.watch.found[i]:
	case <-p.done:
		select {
		case <-p.watch.found[i]: // printed on its way out
		default:
			return "", fmt.Errorf("testground: %s exited before printing %q (log: %s)", p.name, line, p.log.Name())
		}
	case <-timer.C:
		return "", fmt.Errorf("testground: no %q line from %s within %s (log: %s)", line, p.name, timeout, p.log.Name())
	}
	return p.watch.value(i), nil
}

// watched are the announcements the runner reads from its processes'
// output.
var watched = [...]string{cli.AnnounceTelemetry, cli.AnnounceController, cli.AnnounceRegistered}

// lineWatch is the second writer behind a process's log: it cuts the
// output into lines and keeps the value of the first line that matches
// each watched announcement.
type lineWatch struct {
	mu sync.Mutex
	//tinyleo:guardedby mu
	partial []byte // output after the last newline
	//tinyleo:guardedby mu
	values [len(watched)]string
	found  [len(watched)]chan struct{} // found[i] closes once values[i] is set
}

func newLineWatch() *lineWatch {
	w := &lineWatch{}
	for i := range w.found {
		w.found[i] = make(chan struct{})
	}
	return w
}

func (w *lineWatch) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rest := append(w.partial, b...)
	for {
		line, after, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			break
		}
		for i, format := range watched {
			if w.values[i] != "" {
				continue
			}
			if v, ok := cli.Announced(format, string(line)); ok {
				w.values[i] = v
				close(w.found[i])
			}
		}
		rest = after
	}
	w.partial = append(w.partial[:0], rest...)
	return len(b), nil
}

func (w *lineWatch) value(i int) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.values[i]
}

// RunExec executes a plan: one real tinyleo-ctl, N real
// tinyleo-sat processes over the real TCP southbound, started in the
// order the controller's announcements on stdout allow, faults injected
// by signaling the agent processes on schedule, artifacts collected into
// cfg.Dir, and the run scored with the plan's SLO rules over the
// controller's exit-time metrics document (MetricsFile), fleet rollup
// included.
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

	// Controller. Both its ports are :0; it announces the bound addresses
	// on stdout.
	ctl, err := launch(cfg.CtlBin, cfg.Dir, "ctl",
		"-listen", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-agents", fmt.Sprint(m.Agents),
		"-slots", fmt.Sprint(m.Slots),
		"-dt", fmt.Sprint(m.SlotSeconds),
		"-hold", fmt.Sprintf("%gs", m.HoldS),
		"-fleet-lag", fmt.Sprintf("%gs", m.FleetLagS),
		"-fleet-silent", fmt.Sprintf("%gs", m.FleetSilentS),
		"-metrics-out", filepath.Join(cfg.Dir, MetricsFile),
		"-record-out", filepath.Join(cfg.Dir, "ctl-flight.jsonl.gz"),
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

	ctlAddr, err := ctl.await(cli.AnnounceController, 30*time.Second)
	if err != nil {
		return nil, err
	}
	metricsAddr, err := ctl.await(cli.AnnounceTelemetry, 30*time.Second)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "controller southbound %s, telemetry %s\n", ctlAddr, metricsAddr)
	poller := newMetricsPoller(metricsAddr, 250*time.Millisecond)
	defer poller.Stop()

	// Agents. The controller starts its first slot, and the fault clock
	// starts, once all of them have registered.
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
			"-controller", ctlAddr,
			"-id", fmt.Sprint(i),
			"-run-for", fmt.Sprintf("%gs", m.RunForS),
			"-fleet-interval", fmt.Sprintf("%dms", m.FleetIntervalMS),
			"-record-out", filepath.Join(cfg.Dir, fmt.Sprintf("sat-%d-flight.jsonl.gz", i)),
		)
		if err != nil {
			return nil, err
		}
	}
	if _, err := ctl.await(cli.AnnounceRegistered, 60*time.Second); err != nil {
		return nil, err
	}
	t0 := time.Now()
	fmt.Fprintf(cfg.Log, "%d agents registered\n", m.Agents)

	// Fault schedule: sleep to each fault's offset from registration and
	// signal the target agent process.
	faultDone := make(chan []FaultRecord, 1)
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
	case <-ctl.done:
		if ctl.err != nil {
			runErr = fmt.Errorf("controller exited: %v (log: %s)", ctl.err, ctl.log.Name())
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

	// The controller's exit-time metrics document, or the poller's last
	// sweep in its place if the controller died before writing it.
	metricsPath := filepath.Join(cfg.Dir, MetricsFile)
	if _, err := os.Stat(metricsPath); err != nil {
		if err := poller.WriteRaw(metricsPath); err != nil {
			fmt.Fprintf(cfg.Log, "%v\n", err)
		}
	}
	samples, err := readSamples(metricsPath)
	if err != nil && runErr == nil {
		runErr = fmt.Errorf("no controller metrics: %v", err)
	}

	summary := fleet.Summarize(samples)
	run := &RunReport{Plan: *m, Faults: faults, Fleet: &summary}
	if err := run.Score(samples); err != nil {
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

// launch starts one process with stdout+stderr written both to NAME.log
// in the run directory and to its line watcher, and a reaper goroutine
// closing its done channel.
func launch(bin, dir, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{}), log: logf, watch: newLineWatch()}
	out := io.MultiWriter(logf, p.watch)
	p.cmd.Stdout, p.cmd.Stderr = out, out
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("testground: launch %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
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
