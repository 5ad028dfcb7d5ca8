// Command tinyleo-testground is the real-process campaign runner: it
// reads a declarative test-plan manifest (JSON), launches one real
// tinyleo-ctl controller plus N real tinyleo-sat agent processes over the
// real TCP southbound, coordinates startup by the addresses and the
// registration line the controller prints, injects faults by signaling agent
// processes on schedule, and collects per-run artifacts (the controller's
// metrics document, one flight recording per process, process logs) into
// a run directory with a scored SLO report.
//
//	tinyleo-testground -plan plans/smoke.json -out runs/smoke
//
// Seeded virtual-clock campaigns are internal/chaos, driven by
// tinyleo-bench -run chaos; there is no in-process mode here.
//
// Exit status: 0 when the run passed its SLO rules, 1 on breach or
// orchestration failure, 2 on usage errors. The scored report lands in
// <out>/report.json; -v streams orchestration progress to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/testground"
)

func main() {
	plan := flag.String("plan", "", "test-plan manifest to run (.json; required)")
	out := flag.String("out", "", "run directory for artifacts and the scored report (default testground-<name>)")
	ctlBin := flag.String("ctl-bin", "tinyleo-ctl", "tinyleo-ctl binary to launch")
	satBin := flag.String("sat-bin", "tinyleo-sat", "tinyleo-sat binary to launch")
	timeout := flag.Duration("timeout", 0, "abort the controller process after this long (0 = derived from the plan)")
	verbose := flag.Bool("v", false, "stream orchestration progress to stderr")
	flag.Parse()
	if *plan == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: tinyleo-testground -plan <manifest.json> [-out dir] [-v]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	m, err := testground.Load(*plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-testground: %v\n", err)
		os.Exit(2)
	}
	dir := *out
	if dir == "" {
		dir = "testground-" + m.Name
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-testground: %v\n", err)
		os.Exit(1)
	}
	var log io.Writer = io.Discard
	if *verbose {
		log = os.Stderr
	}

	rep, err := testground.RunExec(m, testground.ExecConfig{
		CtlBin: *ctlBin, SatBin: *satBin, Dir: dir, Log: log, CtlTimeout: *timeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-testground: %v\n", err)
		os.Exit(1)
	}
	path, err := rep.WriteFile(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-testground: %v\n", err)
		os.Exit(1)
	}
	printSummary(os.Stdout, m, rep, path)
	if !rep.Passed {
		os.Exit(1)
	}
}

// printSummary renders the run's verdicts and artifact inventory.
func printSummary(w io.Writer, m *testground.Manifest, rep *testground.RunReport, path string) {
	verdict := "PASS"
	if !rep.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s: plan %q: %s\n", verdict, m.Name, path)
	if rep.Err != "" {
		fmt.Fprintf(w, "  error: %s\n", rep.Err)
	}
	if f := rep.Fleet; f != nil {
		states, _ := json.Marshal(f.States)
		fmt.Fprintf(w, "  fleet: %d agents %s, %d reports, %d gaps, %d decode errors\n",
			f.Agents, states, f.Reports, f.Gaps, f.DecodeErrors)
	}
	for _, fr := range rep.Faults {
		suffix := ""
		if fr.Err != "" {
			suffix = " (" + fr.Err + ")"
		}
		fmt.Fprintf(w, "  fault +%gs: %s agent %d%s\n", fr.AtS, fr.Kind, fr.Agent, suffix)
	}
	for _, st := range rep.SLO {
		v := "ok"
		if st.Breached {
			v = "BREACH"
		}
		fmt.Fprintf(w, "  slo: %-48s value=%.4g %s\n", st.Expr(), st.Value, v)
	}
	fmt.Fprintf(w, "  artifacts: %d files in %s\n", len(rep.Artifacts), dirOf(path))
	if rep.WallElapsedMS > 0 {
		fmt.Fprintf(w, "  wall: %.1fs\n", rep.WallElapsedMS/1000)
	}
}

func dirOf(path string) string {
	if i := len(path) - len("/"+testground.ReportFile); i > 0 {
		return path[:i]
	}
	return "."
}
