package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// options selects one run: the contract's arguments plus the sizing.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizing
	// outDir receives <workload>.trace.jsonl on a traced run.
	outDir string
}

// run is one execution of one workload: the seeded input generator, the
// operation clock, failure accounting and the measurements.
type run struct {
	opt options
	rng *rand.Rand
	sp  *spans // nil on an untraced run
	led ledger

	// attempted counts plans, slots, repairs and packets; failed counts
	// violated checks. Their ratio is failed_ops_ratio.
	attempted, failed int64
	failures          []string
	// notes are facts about the generated inputs worth a line of output.
	notes []string

	setups []float64 // seconds per set-up repetition

	// Per-operation host time (ms), split by whether the operation was
	// traced, and the processor time all operations took.
	lat, latTraced []float64
	cpu            float64
	ops            int
	deadline       time.Time

	// State at the start of the timed phase, for the deltas finish takes.
	heapMax             uint64
	heapMarks           int
	mem0                runtime.MemStats
	cpu0                float64
	reused0, rematched0 int64
	timedStart          time.Time
}

func newRun(opt options) *run {
	r := &run{opt: opt, rng: rand.New(rand.NewSource(opt.seed)), led: ledger{}}
	if opt.trace {
		r.sp = newSpans(opt.workload)
	}
	return r
}

// fail records one violated check as one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setup runs build repeatedly — at least sizing.setupRepeats times, and until
// sizing.setupSeconds of set-up have accumulated or thirty repetitions are
// done, so that a cheap set-up gets enough repetitions for a steady median —
// tearing down every product but the last, which it returns. setup_s is the
// median repetition.
func setup[T any](r *run, build func() (T, error), teardown func(T)) (T, error) {
	var total float64
	for i := 1; ; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, err
		}
		s := time.Since(t0).Seconds()
		r.setups = append(r.setups, s)
		total += s
		if sz := r.opt.size; i >= sz.setupRepeats && (total >= sz.setupSeconds || i >= 30) {
			return v, nil
		}
		teardown(v)
	}
}

// cpuSeconds is the processor time (user + system) the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapMark records the live heap at a stage boundary: HeapAlloc after a
// forced collection. Call it between operations, holding the state whose
// size is of interest, at a point that does not depend on how fast the run
// goes, so that the figure repeats.
func (r *run) heapMark() {
	r.heapMarks++
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > r.heapMax {
		r.heapMax = m.HeapAlloc
	}
}

// startTimed opens the timed phase after set-up.
func (r *run) startTimed() {
	r.heapMark()
	runtime.ReadMemStats(&r.mem0)
	r.cpu0 = cpuSeconds()
	r.reused0, r.rematched0 = obsCellsReused.Value(), obsCellsRematched.Value()
	r.timedStart = time.Now()
	r.deadline = r.timedStart.Add(time.Duration(r.opt.seconds * float64(time.Second)))
}

// more reports whether the timed phase should start another operation: it
// runs at least one, then as many as start before the deadline.
func (r *run) more() bool { return r.ops == 0 || time.Now().Before(r.deadline) }

// op times one closed-loop operation. On a traced run every second operation
// is traced — spans recorded and the process-wide obs registry enabled — and
// the others run bare, so the two halves give the tracing overhead under the
// same conditions. f receives the operation's root span context and number.
func (r *run) op(name string, f func(root obs.SpanContext, op int)) (ms float64) {
	id := r.ops
	r.ops++
	traced := r.sp != nil && id%2 == 1
	if r.sp != nil {
		r.sp.on = traced
		obs.Default().SetEnabled(traced)
	}
	c0 := cpuSeconds()
	t0 := time.Now()
	root := r.sp.start(obs.SpanContext{}, name, id)
	f(root.Context(), id)
	root.End()
	ms = float64(time.Since(t0)) / 1e6
	r.cpu += cpuSeconds() - c0
	if traced {
		r.latTraced = append(r.latTraced, ms)
		r.sp.on = false
		obs.Default().SetEnabled(false)
	} else {
		r.lat = append(r.lat, ms)
	}
	return ms
}

// latencies returns every operation's host time in milliseconds.
func (r *run) latencies() []float64 {
	return append(append([]float64(nil), r.lat...), r.latTraced...)
}

// layer times one call into a layer under the operation's root span and
// returns the host time it took.
func (r *run) layer(root obs.SpanContext, op int, name string, f func()) time.Duration {
	sp := r.sp.start(root, name, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d
}

// finish closes the timed phase and derives the metrics every workload
// reports: the end-to-end set and the process counters.
func (r *run) finish() {
	cpu := cpuSeconds() - r.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if r.heapMarks < 2 {
		// The run ended before the workload's own mark in the timed phase.
		r.heapMark()
	}

	all := r.latencies()
	busy := sum(all) / 1e3
	r.led.median("setup_s", r.setups)
	r.led.median("op_latency_ms_p50", all)
	r.led.ratio("ops_per_s", float64(len(all)), busy, len(all))
	r.led.ratio("cpu_ms_per_op", r.cpu*1e3, float64(len(all)), len(all))
	alloc := float64(m.TotalAlloc - r.mem0.TotalAlloc)
	r.led.ratio("alloc_kb_per_op", alloc/(1<<10), float64(len(all)), len(all))
	r.led.set("live_heap_mb_max", float64(r.heapMax)/(1<<20), 1)

	r.led.set("proc.alloc_mb", alloc/(1<<20), 1)
	r.led.set("proc.gc_pause_ms", float64(m.PauseTotalNs-r.mem0.PauseTotalNs)/1e6, int(m.NumGC-r.mem0.NumGC))
	r.led.set("proc.cpu_s", cpu, 1)
	r.led.set("failed_ops_ratio", float64(r.failed)/float64(max(r.attempted, 1)), int(r.attempted))
	if len(r.lat) > 0 && len(r.latTraced) > 0 {
		r.led.set("bench.trace_overhead_ratio", median(r.latTraced)/median(r.lat), len(r.latTraced))
	}
}
