package metrics

import (
	"math"
	"strings"
	"testing"
)

// Undefined statistics (empty-sample percentiles and means) are NaN;
// they must render as "-" in tables and CSV, never as "NaN".
func TestTableNaNRendersPlaceholder(t *testing.T) {
	tab := NewTable("Fig", "name", "p50", "p99")
	tab.AddRow("empty", Percentile(nil, 50), Mean(nil))
	tab.AddRow("inf", math.Inf(1), math.Inf(-1))

	var txt, csv strings.Builder
	tab.Render(&txt)
	tab.RenderCSV(&csv)
	for _, out := range []string{txt.String(), csv.String()} {
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("NaN/Inf leaked into output:\n%s", out)
		}
		if !strings.Contains(out, "-") {
			t.Errorf("placeholder missing:\n%s", out)
		}
	}
	if got := csv.String(); !strings.Contains(got, "empty,-,-") {
		t.Errorf("csv row = %q, want empty,-,-", got)
	}
}
