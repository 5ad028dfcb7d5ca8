// Command bench is the whole-loop performance ledger of ISSUE 11: four
// workloads that drive the public functions of every layer from outside —
// sparsify, compile, enforce over loopback TCP, forward through the
// emulator — closed-loop from one driver goroutine, and report the
// end-to-end and per-layer metrics BENCHMARK.json declares. README.md in
// this directory says why each workload and metric exists.
//
//	go run ./bench -seed 1                       every workload, bare and traced
//	go run ./bench -workload W -seed S -trace    one traced run
//	go run ./bench -aa 3                         A/A check of the gated metrics
//
// The driver's form is `--workload W --seed S --seconds N --trace 0|1`; the
// last line of standard output is then the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/orbit"
)

// sizing fixes the dimensions of the four workloads.
type sizing struct {
	// loop-plan: texture grid, horizon, candidate RAANs, demand and surge in
	// satellite units, packets forwarded per loop.
	planGridDeg               float64
	planSlots, planRAANs      int
	planUnits, planSurgeUnits float64
	planPackets               int
	// Walker testbed sizes of the other three workloads, and the length of
	// the plan enforce-churn replays.
	controlSats, churnSats, churnSlots, fwdSats int
	// Set-up is repeated at least setupRepeats times and until setupSeconds
	// have accumulated.
	setupRepeats int
	setupSeconds float64
}

// fullSize is the ledger's sizing: every workload completes enough
// operations for a steady median within the contract's run length on two
// cores. README.md gives the evidence for each number.
var fullSize = sizing{
	planGridDeg: 6, planSlots: 24, planRAANs: 12, planUnits: 30, planSurgeUnits: 8, planPackets: 50000,
	controlSats: 1764, churnSats: 529, churnSlots: 100, fwdSats: 529,
	setupRepeats: 3, setupSeconds: 1,
}

// smokeSize runs all four workloads in a few seconds for bench_test.go.
var smokeSize = sizing{
	planGridDeg: 10, planSlots: 6, planRAANs: 6, planUnits: 60, planSurgeUnits: 3, planPackets: 2000,
	controlSats: 256, churnSats: 256, churnSlots: 10, fwdSats: 256,
	setupRepeats: 1,
}

// testbedCoverage is the coverage chaos.NewTestbed gives its controller,
// for the isolated geometry call on the same inputs.
var testbedCoverage = orbit.CoverageParams{MinElevation: orbit.DefaultCoverageParams.MinElevation / 2}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, bare then traced)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 25, "length of the timed phase (BENCHMARK.json run_seconds)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, spans to bench/out/<workload>.trace.jsonl")
	aa := fs.Int("aa", 0, "run every workload N times in each of two sets and compare the gated metrics")
	smoke := fs.Bool("smoke", false, "tiny sizing (seconds instead of minutes)")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, size: fullSize, outDir: "bench/out"}
	if *smoke {
		opt.size = smokeSize
	}
	switch {
	case *aa > 0:
		return runAA(out, opt, *aa)
	case opt.workload != "":
		res, err := runWorkload(out, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", opt.workload, err)
			return 1
		}
		fmt.Fprintln(out, res.json(opt.trace))
		if res.failed > 0 {
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			opt.workload, opt.trace = w, traced
			res, err := runWorkload(out, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				return 1
			}
			if res.failed > 0 {
				code = 1
			}
		}
	}
	return code
}

// joinTraceValue rewrites the driver's "--trace 0" into "-trace=0": the
// flag package takes a boolean's value only in that form.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	led               ledger
}

// json renders the result as the driver reads it: every end-to-end metric on
// a bare run, every per-layer metric on a traced one (0 where the workload
// does not measure it).
func (res result) json(traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.led[d.name].value, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// runWorkload executes one run and prints its metrics by name.
func runWorkload(out io.Writer, opt options) (result, error) {
	r := newRun(opt)
	// Each run starts from a collected heap, whatever ran before it in
	// this process.
	runtime.GC()
	var err error
	switch opt.workload {
	case loopPlan:
		err = r.runLoopPlan()
	case controlSteady:
		err = r.runControlSteady()
	case enforceChurn:
		err = r.runEnforceChurn()
	case forwardMix:
		err = r.runForwardMix()
	default:
		err = fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, err
	}
	var self map[string]int64
	if r.sp != nil {
		self = r.traceLedger()
	}
	r.led.set("failed_ops_ratio", float64(r.failed)/float64(r.attempted), int(r.attempted))
	r.print(out, self)
	return result{r.attempted, r.failed, r.led}, nil
}

// traceLedger writes the spans out and records the layer groups' self-time
// shares.
func (r *run) traceLedger() map[string]int64 {
	if n := r.sp.t.Dropped(); n > 0 {
		r.fail("trace ring overwrote %d spans", n)
	}
	if _, err := r.sp.write(r.opt.outDir, r.opt.workload); err != nil {
		r.fail("trace: %v", err)
	}
	self := selfTimes(r.sp.t.Events())
	byGroup, total := shares(self)
	for _, g := range []string{"plan", "compile", "southbound", "forwarding"} {
		r.led.set("share."+g, byGroup[g], len(r.latTraced))
	}
	// Self times must add up to the traced operations' wall time.
	if wall := sum(r.latTraced) * 1e3; total > 0 && (float64(total) < 0.95*wall || float64(total) > 1.05*wall) {
		r.fail("span self times sum to %d us, the traced operations took %.0f us", total, wall)
	}
	return self
}

// print lists every metric the run measured, by name, with unit and sample
// count, then the traced operations' self time by span.
func (r *run) print(out io.Writer, self map[string]int64) {
	mode := "bare"
	if r.opt.trace {
		mode = "traced"
	}
	all := r.latencies()
	fmt.Fprintf(out, "== %s seed=%d %s: %d operations in %.2f s, %d attempted, %d failed\n",
		r.opt.workload, r.opt.seed, mode, len(all), sum(all)/1e3, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(out, "   %s\n", n)
	}
	if p := highestPercentile(len(all)); p > 50 {
		v, _ := percentile(all, p)
		fmt.Fprintf(out, "   operation latency p%d = %.4g ms (the highest percentile %d samples support)\n", p, v, len(all))
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.led[d.name]; ok {
				fmt.Fprintf(out, "   %-34s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
			}
		}
	}
	if self != nil {
		names := make([]string, 0, len(self))
		var total int64
		for name, us := range self {
			names = append(names, name)
			total += us
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Fprintf(out, "   self time of the %d traced operations, by span:\n", len(r.latTraced))
		for _, name := range names {
			fmt.Fprintf(out, "     %-32s %12d us %6.1f %%\n", name, self[name], 100*float64(self[name])/float64(total))
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
}
