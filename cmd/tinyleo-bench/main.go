// Command tinyleo-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	tinyleo-bench [-scale small|paper] [-run all|table1|fig3|fig4|fig9|fig13|
//	               fig14|fig15|fig15d|fig15e|fig16|fig17|fig17d|fig18|fig19a|
//	               fig19bcd|delta|chaos|fleet]
//	               [-chaos-scenario all|NAME] [-chaos-seed N]
//	               [-chaos-fleet-out f.json] [-csv] [-bench-json out.json]
//	               [-metrics-addr host:port] [-record-out flight.jsonl.gz]
//	               [-pprof]
//
// -run delta measures the incremental MPC compiler (mpc.DeltaCompile): a
// full Compile chain versus a warm-started delta chain over the same 12
// control slots at the 529-satellite scenario, verifying byte-identical
// plans and reporting the warm-slot speedup, warm-hit ratio, and the
// payload bytes per slot of enforcing the plan through a DeltaEnforcer.
//
// -run chaos executes the seeded fault-injection campaigns (internal/chaos):
// ISL failures, loss storms, agent crashes, southbound connection drops,
// and demand surges driven through MPC repair, southbound enforcement, and
// data-plane failover, scored against the flight recorder's SLO rules.
// Each round's repair diff goes through the DeltaEnforcer tinyleo-ctl uses
// and ends by checking that every live agent applied exactly its desired
// peer set. Same -chaos-seed → byte-identical results, including the fleet
// telemetry health view (-chaos-fleet-out dumps each scenario's final
// constellation summary as a deterministic JSON artifact).
//
// -run fleet benchmarks the fleet telemetry plane itself: agents hammer
// their registries while flushing changed-row reports into a controller-side
// aggregator over real TCP, once with telemetry off and once on, and
// reports the overhead ratio. -pprof serves net/http/pprof under
// /debug/pprof/ on the -metrics-addr listener.
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics (plus
// /metrics.json, /healthz, /trace) while the experiments run — solver
// iterations, MPC compile latency, data-plane counters move in real time;
// -record-out writes the run's one record file when done (spans, events,
// slot snapshots, SLO status: tinyleo-ctl inspect and tinyleo-ctl trace
// both read it); -bench-json flattens every emitted table into a
// [{"name","value","unit"}] array (schema: EXPERIMENTS.md) for
// continuous-benchmarking dashboards. All output files flush on
// SIGINT/SIGTERM, so an interrupted sweep keeps its partial results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/texture"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small or paper")
	run := flag.String("run", "all", "comma-separated experiment list (all, table1, fig3, fig4, fig9, fig13, fig14, fig15, fig15d, fig15e, fig16, fig17, fig17d, fig18, fig19a, fig19bcd, delta, chaos, fleet, ablations, discussion)")
	chaosScenario := flag.String("chaos-scenario", "all", "chaos scenario for -run chaos (all, baseline, isl-storm, agent-crash, conn-flap, surge, mixed)")
	chaosSeed := flag.Int64("chaos-seed", 42, "campaign seed for -run chaos (same seed => identical results)")
	chaosFleetOut := flag.String("chaos-fleet-out", "", "write each chaos scenario's final fleet telemetry summary as JSON to this file (deterministic for a given -chaos-seed)")
	sbAgents := flag.Int("sb-agents", 4, "in-process agents for -run fleet")
	sbCmds := flag.Int("sb-cmds", 2000, "commands to push for -run fleet")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace on this address while experiments run (empty = telemetry off)")
	recordOut := flag.String("record-out", "", "write a flight recording to this file when done (.gz = gzip)")
	benchJSON := flag.String("bench-json", "", "write every emitted table as a flat [{name,value,unit}] JSON array to this file")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	cli.Telemetry{
		Process: "tinyleo-bench", MetricsAddr: *metricsAddr, RecordOut: *recordOut, Pprof: *pprof,
		Out: os.Stderr, // stdout carries the tables
	}.Start()

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tinyleo-bench: unknown scale %q\n", *scaleName)
		cli.Exit(2)
	}
	sel := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		sel[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return sel["all"] || sel[name] }
	var emitted []*metrics.Table
	if *benchJSON != "" {
		cli.AtExit(func() {
			if err := writeBenchJSON(*benchJSON, emitted); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-bench: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "bench-json: wrote %d tables to %s\n", len(emitted), *benchJSON)
		})
	}
	emit := func(tabs ...*metrics.Table) {
		for _, t := range tabs {
			if *csv {
				fmt.Printf("# %s\n", t.Title)
				t.RenderCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
			fmt.Println()
			emitted = append(emitted, t)
		}
	}
	fail := func(name string, err error) {
		cli.Fatalf("tinyleo-bench: %s: %v\n", name, err)
	}

	needLib := want("table1") || want("fig9") || want("fig13") || want("fig14") ||
		want("fig15") || want("fig15d") || want("fig15e") || want("fig19a") ||
		want("ablations") || want("discussion")

	start := time.Now()
	var library *texture.Library
	if needLib {
		fmt.Fprintf(os.Stderr, "building texture library (%s scale)...\n", scale.Name)
		l, err := scale.BuildLibrary()
		if err != nil {
			fail("library", err)
		}
		library = l
		fmt.Fprintf(os.Stderr, "library: %d tracks, %d coverage entries (%.1fs)\n",
			l.NumTracks(), l.NNZ(), time.Since(start).Seconds())
	}

	if want("table1") {
		emit(experiments.Table1(library))
	}
	if want("fig3") {
		emit(experiments.Figure3(scale)...)
	}
	if want("fig4") {
		emit(experiments.Figure4(scale)...)
	}

	needOuts := want("fig9") || want("fig13") || want("fig14") || want("fig15") ||
		want("fig15e") || want("fig19a") || want("discussion")
	var outs []*experiments.SparsifyOutcome
	if needOuts {
		fmt.Fprintf(os.Stderr, "running sparsification pipeline...\n")
		o, err := experiments.RunSparsification(scale, library)
		if err != nil {
			fail("sparsification", err)
		}
		outs = o
	}
	if want("fig9") {
		tiny := experiments.RealizeConstellation(outs[0].Lib, outs[0].TinyLEO)
		side := 1
		for side*side < len(tiny) {
			side++
		}
		uniform := baseline.WalkerConfig{
			InclinationDeg: 53, AltitudeKm: 550, Planes: side, SatsPerPlane: side, PhasingF: 1,
		}.Satellites()
		emit(experiments.Figure9(scale, tiny, uniform)...)
	}
	if want("fig13") {
		emit(experiments.Figure13(outs))
	}
	if want("fig14") {
		emit(experiments.Figure14(outs))
		fmt.Println(experiments.Figure1Maps(outs))
	}
	if want("fig15") {
		emit(experiments.Figure15a(outs), experiments.Figure15b(outs), experiments.Figure15c(outs))
	}
	if want("fig15d") {
		tab, err := experiments.Figure15d(scale, library)
		if err != nil {
			fail("fig15d", err)
		}
		emit(tab)
	}
	if want("fig15e") {
		emit(experiments.Figure15e(outs)...)
	}
	if want("fig16") {
		tabs, _, err := experiments.Figure16(scale)
		if err != nil {
			fail("fig16", err)
		}
		emit(tabs...)
	}
	if want("fig17") {
		tabs, err := experiments.Figure17(scale)
		if err != nil {
			fail("fig17", err)
		}
		emit(tabs...)
	}
	if want("fig17d") {
		tab, err := experiments.Figure17d(scale, 1000)
		if err != nil {
			fail("fig17d", err)
		}
		emit(tab)
	}
	if want("fig18") {
		tab, err := experiments.Figure18(scale)
		if err != nil {
			fail("fig18", err)
		}
		emit(tab)
	}
	if want("fig19a") {
		var backbone *experiments.SparsifyOutcome
		for _, o := range outs {
			if o.Scenario == "internet-backbone" {
				backbone = o
			}
		}
		tab, err := experiments.Figure19a(scale, backbone)
		if err != nil {
			fail("fig19a", err)
		}
		emit(tab)
	}
	if want("fig19bcd") {
		tabs, err := experiments.Figure19bcd(scale)
		if err != nil {
			fail("fig19bcd", err)
		}
		emit(tabs...)
	}
	if want("delta") {
		tab, err := experiments.DeltaCompileSweep()
		if err != nil {
			fail("delta", err)
		}
		emit(tab)
	}
	if want("chaos") {
		tabs, fleets, err := experiments.ChaosCampaign(scale, *chaosScenario, *chaosSeed)
		if err != nil {
			fail("chaos", err)
		}
		emit(tabs...)
		if *chaosFleetOut != "" {
			if err := writeChaosFleet(*chaosFleetOut, fleets); err != nil {
				fail("chaos-fleet-out", err)
			}
			fmt.Fprintf(os.Stderr, "chaos-fleet: wrote %d scenario snapshots to %s\n",
				len(fleets), *chaosFleetOut)
		}
	}
	if want("fleet") {
		tab, err := experiments.FleetAggregation(*sbAgents, *sbCmds)
		if err != nil {
			fail("fleet", err)
		}
		emit(tab)
	}
	if want("ablations") {
		tab, err := experiments.AblationSolver(scale, library)
		if err != nil {
			fail("ablation-solver", err)
		}
		emit(tab)
		tab, err = experiments.AblationLibraryRichness(scale)
		if err != nil {
			fail("ablation-library", err)
		}
		emit(tab)
		tab, err = experiments.AblationMPCLifetime(scale)
		if err != nil {
			fail("ablation-mpc", err)
		}
		emit(tab)
	}
	if want("discussion") {
		tab, err := experiments.DiscussionFederation(scale, library)
		if err != nil {
			fail("discussion-federation", err)
		}
		emit(tab)
		tab, err = experiments.DiscussionRadioOverlap(scale, outs)
		if err != nil {
			fail("discussion-overlap", err)
		}
		emit(tab)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}

// writeBenchJSON flattens every emitted table into the -bench-json file.
func writeBenchJSON(path string, tables []*metrics.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return metrics.WriteBenchJSON(f, tables)
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
