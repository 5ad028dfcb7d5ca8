package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return v
	}
	for _, c := range []struct {
		n, p int
		want float64
		ok   bool
	}{
		{200, 95, 190, true},  // ten samples beyond the 190th
		{199, 95, 190, false}, // nine
		{20, 50, 10, true},
		{19, 50, 10, false},
		{1000, 99, 990, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, p%d) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	for _, c := range []struct{ n, want int }{{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v; want 3.5, 13.5, 31", q1, q2, q3)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	ev := func(name, span, parent string, start, dur int64) obs.Event {
		return obs.Event{Name: name, Span: span, Parent: parent, StartUS: start, DurUS: dur}
	}
	self := selfTimes([]obs.Event{
		ev("op", "r", "", 0, 100),
		// Two children overlapping on [30, 40): they cover [10, 60).
		ev("a", "a", "r", 10, 30),
		ev("b", "b", "r", 30, 30),
		// A grandchild is its parent's, not the root's.
		ev("c", "c", "a", 15, 10),
		// A child running past its parent's end covers only the part inside.
		ev("d", "d", "r", 90, 50),
		// A second root of the same name adds up.
		ev("op", "r2", "", 200, 7),
	})
	want := map[string]int64{"op": 100 - 50 - 10 + 7, "a": 20, "b": 30, "c": 10, "d": 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byGroup, total := shares(map[string]int64{"mpc.delta_compile": 60, "southbound.push": 30, "op.slot": 10})
	if total != 100 || byGroup["compile"] != 0.6 || byGroup["southbound"] != 0.3 || byGroup["plan"] != 0 {
		t.Errorf("shares = %v of %d", byGroup, total)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func TestLedgerMatchesManifest(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, declared []manifestMetric, bounded bool) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: %d metrics in the ledger, %d in BENCHMARK.json", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s: malformed metric %+v", kind, d)
			}
			if seen[d.name] {
				t.Errorf("%s: name %q used twice", kind, d.name)
			}
			seen[d.name] = true
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s[%d]: ledger has %+v, BENCHMARK.json %+v", kind, i, d, got)
			}
			if bounded && (got.Bound == nil || *got.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound of %s: ledger %v, BENCHMARK.json %v", kind, d.name, d.bound, got.Bound)
			}
			if !bounded && got.Bound != nil {
				t.Errorf("%s: %s has a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd, true)
	check("per_layer", perLayer, m.PerLayer, false)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want name %q and a why of at most 200 characters", i, w, workloadNames[i])
		}
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
}

// TestSmokeEmitsTheDeclaredMetrics runs all four workloads, bare and traced,
// at the smoke sizing and compares what the driver would read with
// BENCHMARK.json.
func TestSmokeEmitsTheDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	measured := map[string]bool{}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w, seed: 7, seconds: 0.3, trace: traced, size: smokeSize, outDir: t.TempDir()}
			res, err := runWorkload(io.Discard, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w, traced, res.failed, res.attempted)
			}
			var out struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.json(traced)), &out); err != nil {
				t.Fatal(err)
			}
			declared := m.EndToEnd
			if traced {
				declared = m.PerLayer
			}
			if len(out.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w, traced, len(out.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := out.Metrics[d.Name]
				if !ok || got.Value == nil || got.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s emitted as %+v, declared with unit %s", w, traced, d.Name, got, d.Unit)
					continue
				}
				if !traced && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, *got.Value)
				}
				if res.led[d.Name].n > 0 {
					measured[d.Name] = true
				}
			}
			if traced {
				if _, err := os.Stat(opt.outDir + "/" + w + ".trace.jsonl"); err != nil {
					t.Errorf("%s: no trace written: %v", w, err)
				}
			}
		}
	}
	// The smoke runs are too short for a p95 (200 samples); every other
	// per-layer metric must be measured by some workload.
	for _, d := range m.PerLayer {
		if !measured[d.Name] && !strings.HasSuffix(d.Name, "_p95") {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
}
