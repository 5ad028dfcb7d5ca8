// Command tinyleo-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	tinyleo-bench [-scale small|paper] [-run all|NAME[,NAME...]]
//	               [-chaos-scenario all|NAME] [-chaos-seed N]
//	               [-chaos-fleet-out f.json] [-csv]
//	               [-metrics-addr host:port] [-record-out flight.jsonl.gz]
//	               [-pprof]
//
// The experiment names are the rows of experimentTable below, in the
// order -run all prints them; -help lists them, and a name that is
// not in the table exits 2 listing the valid ones. Nothing here measures
// the program's own speed: bench/ (BENCHMARK.json) is the one performance
// ledger.
//
// -run chaos executes the seeded fault-injection campaigns (internal/chaos):
// ISL failures, loss storms, agent crashes, southbound connection drops,
// and demand surges driven through MPC repair, southbound enforcement, and
// data-plane failover, scored against the flight recorder's SLO rules.
// Each round's repair diff goes through the DeltaEnforcer tinyleo-ctl uses
// and ends by checking that every live agent applied exactly its desired
// peer set. Same -chaos-seed → byte-identical stdout, including the fleet
// telemetry health view (-chaos-fleet-out dumps each scenario's final
// constellation summary as a deterministic JSON artifact).
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics (plus
// /metrics.json, /healthz, /trace) while the experiments run — solver
// iterations, MPC compile latency, data-plane counters move in real time;
// -pprof adds net/http/pprof under /debug/pprof/ on that listener;
// -record-out writes the run's one record file when done (spans, events,
// slot snapshots, SLO status: tinyleo-ctl inspect and tinyleo-ctl trace
// both read it). -csv is the machine-readable form of every table. All
// output files flush on SIGINT/SIGTERM, so an interrupted sweep keeps its
// partial results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/texture"
)

// env is what the selected experiments share: the scale, the output
// form, the chaos flags, and the two expensive inputs main builds once
// when a selected experiment asks for them.
type env struct {
	scale   experiments.Scale
	csv     bool
	library *texture.Library
	outs    []*experiments.SparsifyOutcome

	chaosScenario string
	chaosSeed     int64
	chaosFleetOut string
}

// experiment is one -run value.
type experiment struct {
	name string
	lib  bool // needs the texture library
	outs bool // needs the sparsification outcomes (and so the library)
	run  func(*env) error
}

// experimentTable is the one list of -run values: -help prints it,
// selectExperiments validates against it and main runs it top to bottom.
var experimentTable = []experiment{
	{name: "table1", lib: true, run: func(e *env) error {
		e.emit(experiments.Table1(e.library))
		return nil
	}},
	{name: "fig3", run: func(e *env) error {
		e.emit(experiments.Figure3(e.scale)...)
		return nil
	}},
	{name: "fig4", run: func(e *env) error {
		e.emit(experiments.Figure4(e.scale)...)
		return nil
	}},
	{name: "fig9", outs: true, run: func(e *env) error {
		tiny := experiments.RealizeConstellation(e.outs[0].Lib, e.outs[0].TinyLEO)
		e.emit(experiments.Figure9(e.scale, tiny)...)
		return nil
	}},
	{name: "fig13", outs: true, run: func(e *env) error {
		e.emit(experiments.Figure13(e.outs))
		return nil
	}},
	{name: "fig14", outs: true, run: func(e *env) error {
		e.emit(experiments.Figure14(e.outs))
		fmt.Println(experiments.Figure1Maps(e.outs))
		return nil
	}},
	{name: "fig15", outs: true, run: func(e *env) error {
		e.emit(experiments.Figure15a(e.outs), experiments.Figure15b(e.outs), experiments.Figure15c(e.outs))
		return nil
	}},
	{name: "fig15d", lib: true, run: func(e *env) error {
		return e.emitOne(experiments.Figure15d(e.scale, e.library))
	}},
	{name: "fig15e", outs: true, run: func(e *env) error {
		e.emit(experiments.Figure15e(e.outs)...)
		return nil
	}},
	{name: "fig16", run: func(e *env) error {
		return e.emitAll(experiments.Figure16(e.scale))
	}},
	{name: "fig17", run: func(e *env) error {
		return e.emitAll(experiments.Figure17(e.scale))
	}},
	{name: "fig17d", run: func(e *env) error {
		return e.emitOne(experiments.Figure17d(e.scale, 1000))
	}},
	{name: "fig18", run: func(e *env) error {
		return e.emitOne(experiments.Figure18(e.scale))
	}},
	{name: "fig19a", outs: true, run: func(e *env) error {
		var backbone *experiments.SparsifyOutcome
		for _, o := range e.outs {
			if o.Scenario == "internet-backbone" {
				backbone = o
			}
		}
		return e.emitOne(experiments.Figure19a(e.scale, backbone))
	}},
	{name: "fig19bcd", run: func(e *env) error {
		return e.emitAll(experiments.Figure19bcd(e.scale))
	}},
	{name: "chaos", run: func(e *env) error {
		tabs, fleets, err := experiments.ChaosCampaign(e.scale, e.chaosScenario, e.chaosSeed)
		if err != nil {
			return err
		}
		e.emit(tabs...)
		if e.chaosFleetOut == "" {
			return nil
		}
		if err := writeChaosFleet(e.chaosFleetOut, fleets); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chaos-fleet: wrote %d scenario snapshots to %s\n",
			len(fleets), e.chaosFleetOut)
		return nil
	}},
	{name: "ablations", lib: true, run: func(e *env) error {
		if err := e.emitOne(experiments.AblationSolver(e.scale, e.library)); err != nil {
			return err
		}
		if err := e.emitOne(experiments.AblationLibraryRichness(e.scale)); err != nil {
			return err
		}
		return e.emitOne(experiments.AblationMPCLifetime(e.scale))
	}},
	{name: "discussion", outs: true, run: func(e *env) error {
		if err := e.emitOne(experiments.DiscussionFederation(e.scale, e.library)); err != nil {
			return err
		}
		return e.emitOne(experiments.DiscussionRadioOverlap(e.scale, e.outs))
	}},
}

// emit prints tables to stdout, aligned or as CSV.
func (e *env) emit(tabs ...*metrics.Table) {
	for _, t := range tabs {
		if e.csv {
			fmt.Printf("# %s\n", t.Title)
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}
}

// emitOne and emitAll take a figure runner's (tables, error) result pair.
func (e *env) emitOne(tab *metrics.Table, err error) error {
	if err == nil {
		e.emit(tab)
	}
	return err
}

func (e *env) emitAll(tabs []*metrics.Table, err error) error {
	if err == nil {
		e.emit(tabs...)
	}
	return err
}

// runNames renders the valid -run values for -help and the unknown-name
// error.
func runNames() string {
	names := []string{"all"}
	for _, x := range experimentTable {
		names = append(names, x.name)
	}
	return strings.Join(names, ", ")
}

// selectExperiments resolves a comma-separated -run value to the rows of
// experimentTable it names, in table order. A name that is not in the
// table — a typo, or a sweep that has been retired — is an error rather
// than a silent no-op.
func selectExperiments(arg string) ([]experiment, error) {
	sel := map[string]bool{"all": false}
	for _, x := range experimentTable {
		sel[x.name] = false
	}
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if _, known := sel[name]; !known {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, runNames())
		}
		sel[name] = true
	}
	var picked []experiment
	for _, x := range experimentTable {
		if sel["all"] || sel[x.name] {
			picked = append(picked, x)
		}
	}
	return picked, nil
}

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small or paper")
	run := flag.String("run", "all", "comma-separated experiments to run: all, or names from the list -help prints (an unknown name exits 2)")
	chaosScenario := flag.String("chaos-scenario", "all", "chaos scenario for -run chaos (all, baseline, isl-storm, agent-crash, conn-flap, surge, mixed)")
	chaosSeed := flag.Int64("chaos-seed", 42, "campaign seed for -run chaos (same seed => identical results)")
	chaosFleetOut := flag.String("chaos-fleet-out", "", "write each chaos scenario's final fleet telemetry summary as JSON to this file (deterministic for a given -chaos-seed)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace on this address while experiments run (empty = telemetry off)")
	recordOut := flag.String("record-out", "", "write a flight recording to this file when done (.gz = gzip)")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tinyleo-bench [flags]\n-run values: %s\n", runNames())
		flag.PrintDefaults()
	}
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tinyleo-bench: unknown scale %q\n", *scaleName)
		cli.Exit(2)
	}
	picked, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-bench: -run: %v\n", err)
		cli.Exit(2)
	}

	cli.Telemetry{
		Process: "tinyleo-bench", MetricsAddr: *metricsAddr, RecordOut: *recordOut, Pprof: *pprof,
		Out: os.Stderr, // stdout carries the tables
	}.Start()

	e := &env{
		scale: scale, csv: *csv,
		chaosScenario: *chaosScenario, chaosSeed: *chaosSeed, chaosFleetOut: *chaosFleetOut,
	}
	needLib, needOuts := false, false
	for _, x := range picked {
		needLib = needLib || x.lib || x.outs
		needOuts = needOuts || x.outs
	}

	start := time.Now()
	if needLib {
		fmt.Fprintf(os.Stderr, "building texture library (%s scale)...\n", scale.Name)
		l, err := scale.BuildLibrary()
		if err != nil {
			cli.Fatalf("tinyleo-bench: library: %v\n", err)
		}
		e.library = l
		fmt.Fprintf(os.Stderr, "library: %d tracks, %d coverage entries (%.1fs)\n",
			l.NumTracks(), l.NNZ(), time.Since(start).Seconds())
	}
	if needOuts {
		fmt.Fprintf(os.Stderr, "running sparsification pipeline...\n")
		o, err := experiments.RunSparsification(scale, e.library)
		if err != nil {
			cli.Fatalf("tinyleo-bench: sparsification: %v\n", err)
		}
		e.outs = o
	}
	for _, x := range picked {
		if err := x.run(e); err != nil {
			cli.Fatalf("tinyleo-bench: %s: %v\n", x.name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}

// writeChaosFleet dumps the per-scenario fleet telemetry summaries as
// indented JSON (map keys sort, so the file is deterministic per seed).
func writeChaosFleet(path string, fleets map[string]*chaos.FleetSummary) error {
	b, err := json.MarshalIndent(fleets, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
