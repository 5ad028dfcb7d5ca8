package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %v", s.P50)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty summary")
	}
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("p50 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanSum(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Fig X", "name", "sats", "ratio")
	tab.AddRow("TinyLEO", 1763, 3.85)
	tab.AddRow("Starlink", 6793, 1.0)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== Fig X ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "TinyLEO") || !strings.Contains(out, "6793") {
		t.Errorf("missing data:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	if tab.NumRows() != 2 {
		t.Error("NumRows")
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("x,y", 1)
	var sb strings.Builder
	tab.RenderCSV(&sb)
	want := "a,b\n\"x,y\",1\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}
