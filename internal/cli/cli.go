// Package cli holds shared plumbing for the tinyleo command-line
// binaries: exit-time flush hooks that also run on SIGINT/SIGTERM, so a
// -record-out file survives an interrupted run instead of being skipped
// with the deferred writers, the telemetry wiring behind the
// -metrics-addr/-record-out/-slo/-pprof flags every binary defines, and
// the stdout lines a process announces its bound addresses with.
package cli

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// Announcements are Printf formats of the lines a process prints on stdout
// as it comes up. A harness that launched it with :0 ports reads the bound
// addresses back from them with Announced (tinyleo-testground does).
const (
	// AnnounceTelemetry carries the bound -metrics-addr.
	AnnounceTelemetry = "telemetry on http://%s/metrics\n"
	// AnnounceController carries tinyleo-ctl's bound southbound address and
	// the agent count it waits for.
	AnnounceController = "controller listening on %s, waiting for %d agents...\n"
	// AnnounceRegistered is tinyleo-ctl's line once the agents it waited
	// for have registered, just before its first slot.
	AnnounceRegistered = "%d agents registered\n"
)

// Announced reports whether line (without its newline) is the announcement
// format and returns the value that stands where format's first verb does.
// The line must begin with format's text before that verb, and the value —
// one non-empty field without blanks — must be followed by format's text up
// to its next verb or end.
func Announced(format, line string) (string, bool) {
	head, tail, _ := strings.Cut(strings.TrimSuffix(format, "\n"), "%")
	tail, _, _ = strings.Cut(tail[1:], "%") // tail[0] is the verb
	rest, ok := strings.CutPrefix(line, head)
	if !ok {
		return "", false
	}
	v, _, ok := strings.Cut(rest, tail)
	if tail == "" {
		v = rest
	}
	return v, ok && v != "" && !strings.ContainsAny(v, " \t")
}

var (
	mu       sync.Mutex
	cleanups []func()
	flushed  bool
	trapOnce sync.Once
)

// AtExit registers fn to run exactly once at process end: on Flush
// (normal return), on Exit, or on SIGINT/SIGTERM after TrapSignals.
// Functions run in reverse registration order, defer-style.
func AtExit(fn func()) {
	mu.Lock()
	cleanups = append(cleanups, fn)
	mu.Unlock()
}

// Flush runs every registered cleanup once; later calls are no-ops.
// Binaries `defer cli.Flush()` at the top of main.
func Flush() {
	mu.Lock()
	if flushed {
		mu.Unlock()
		return
	}
	flushed = true
	fns := cleanups
	cleanups = nil
	mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// Exit flushes the cleanups and terminates with code.
func Exit(code int) {
	Flush()
	os.Exit(code)
}

// Fatalf prints to stderr and Exits(1), so error paths still flush
// partial traces/recordings.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...)
	Exit(1)
}

// TrapSignals installs a SIGINT/SIGTERM handler that flushes the
// registered cleanups and exits with the conventional 128+signal code.
// Safe to call more than once.
func TrapSignals() {
	trapOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-ch
			fmt.Fprintf(os.Stderr, "\ninterrupted (%v); flushing telemetry...\n", sig)
			code := 130 // SIGINT
			if sig == syscall.SIGTERM {
				code = 143
			}
			Exit(code)
		}()
	})
}

// Telemetry holds the parsed values of the telemetry flags. The flag
// definitions stay in each main (the repo root's docs test reads them per
// binary from there); a binary without one of the flags leaves its field
// zero.
type Telemetry struct {
	// Process names the binary in messages and the process in the record
	// stream ("tinyleo-ctl", "tinyleo-sat-3").
	Process string
	// MetricsAddr (-metrics-addr) serves /metrics, /healthz, /trace and
	// /slo there; empty serves nothing.
	MetricsAddr string
	// RecordOut (-record-out) writes the flight recording there at exit.
	RecordOut string
	// SLO (-slo) is the rule spec; empty means the default rules.
	SLO string
	// Pprof (-pprof) adds /debug/pprof/ to the MetricsAddr listener.
	Pprof bool
	// Out receives the status lines (nil = os.Stdout).
	Out io.Writer
}

// Start switches on what the flags ask for and returns the bound
// telemetry address ("" when nothing is served). Any of the flags turns
// on the default registry and the process tracer; -record-out or -slo
// turns on the flight recorder over regs (none = obs.Default() alone),
// which are also the registries served. The recording is written, and
// the server closed, by AtExit hooks; a bad flag value is Fatalf.
func (t Telemetry) Start(regs ...*obs.Registry) string {
	out := t.Out
	if out == nil {
		out = os.Stdout
	}
	if len(regs) == 0 {
		regs = []*obs.Registry{obs.Default()}
	}
	if t.Pprof {
		if t.MetricsAddr == "" {
			Fatalf("%s: -pprof needs -metrics-addr to serve on\n", t.Process)
		}
		obs.EnablePprof()
	}
	record := t.RecordOut != "" || t.SLO != ""
	if t.MetricsAddr == "" && !record {
		return ""
	}
	// Recording implies telemetry: the SLO engine reads registry metrics
	// (enforcement ratio, repair latency, ack RTT).
	obs.Enable()
	obs.Trace().SetProcess(t.Process)
	if record {
		rules, err := flightrec.ParseRules(t.SLO) // "" parses to none: the defaults
		if err != nil {
			Fatalf("%s: -slo: %v\n", t.Process, err)
		}
		flightrec.Enable(flightrec.Options{Rules: rules, Registries: regs})
	} else {
		obs.EnableTracing(0)
	}
	if t.RecordOut != "" {
		AtExit(func() {
			summary, err := flightrec.SaveRecording(t.RecordOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: recording: %v\n", t.Process, err)
				return
			}
			fmt.Fprintf(out, "recording: wrote %s to %s\n", summary, t.RecordOut)
		})
	}
	if t.MetricsAddr == "" {
		return ""
	}
	srv, err := obs.Serve(t.MetricsAddr, regs...)
	if err != nil {
		Fatalf("%s: %v\n", t.Process, err)
	}
	AtExit(func() { _ = srv.Close() })
	fmt.Fprintf(out, AnnounceTelemetry, srv.Addr())
	return srv.Addr()
}
