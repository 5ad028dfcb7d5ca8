package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func exampleRegistry() *Registry {
	r := NewRegistry(true)
	r.Counter("tinyleo_rx_total", "type", "hello").Add(3)
	r.Counter("tinyleo_rx_total", "type", "ack").Add(2)
	r.Gauge("tinyleo_agents").Set(4)
	h := r.Histogram("tinyleo_compile_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	return r
}

// promLine matches a valid Prometheus text sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, exampleRegistry()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	types := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			types++
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	if types != 3 {
		t.Errorf("TYPE lines = %d, want 3 (one per metric name):\n%s", types, out)
	}
	for _, want := range []string{
		`tinyleo_rx_total{type="hello"} 3`,
		`tinyleo_agents 4`,
		`tinyleo_compile_seconds_bucket{le="0.01"} 1`,
		`tinyleo_compile_seconds_bucket{le="0.1"} 2`,
		`tinyleo_compile_seconds_bucket{le="+Inf"} 3`,
		`tinyleo_compile_seconds_count 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, exampleRegistry()); err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeDoc([]byte(b.String()))
	if err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if len(doc.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(doc.Series))
	}
	byName := map[string]Sample{}
	for _, s := range doc.Series {
		byName[s.Name+"/"+s.Labels["type"]] = s
	}
	if s := byName["tinyleo_rx_total/hello"]; s.Value != 3 || s.Kind != KindCounter {
		t.Errorf("hello counter sample = %+v", s)
	}
	if s := byName["tinyleo_compile_seconds/"]; s.Count != 3 || len(s.Buckets) != 3 {
		t.Errorf("histogram sample = %+v", s)
	}
}

// One series with no JSON form must not blank the document: /metrics.json
// serves every other series (WriteJSON used to fail with "json: unsupported
// value" and an empty body).
func TestMetricsJSONSkipsNonFiniteSeries(t *testing.T) {
	r := exampleRegistry()
	r.Gauge("tinyleo_ratio").Set(math.NaN())
	r.Histogram("tinyleo_wait_seconds", []float64{1}).Observe(math.Inf(1))
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	doc, err := DecodeDoc(body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/metrics.json with a NaN gauge: status %d, %v, body %q", resp.StatusCode, err, body)
	}
	if len(doc.Series) != 4 {
		t.Fatalf("series = %d, want the 4 finite ones: %+v", len(doc.Series), doc.Series)
	}
	// A budget leaves whole rows out and says which went in.
	samples := Snapshot(r)
	small, rows := EncodeDoc(7, samples, 200)
	got, err := DecodeDoc(small)
	if err != nil || len(small) > 200 || got.Seq != 7 || len(rows) == 0 || len(rows) >= 4 || len(got.Series) != len(rows) {
		t.Fatalf("budgeted document %q (%d bytes, rows %v): %v", small, len(small), rows, err)
	}
	for i, at := range rows {
		if got.Series[i].Key() != samples[at].Key() {
			t.Fatalf("row %d is %q, want sample %d %q", i, got.Series[i].Key(), at, samples[at].Key())
		}
	}
}

func TestMergedRegistries(t *testing.T) {
	a := NewRegistry(true)
	a.Counter("a_total").Inc()
	b := NewRegistry(true)
	b.Counter("b_total").Add(2)
	var out strings.Builder
	if err := WritePrometheus(&out, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a_total 1") || !strings.Contains(out.String(), "b_total 2") {
		t.Errorf("merged exposition:\n%s", out.String())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewHandler(exampleRegistry()))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "tinyleo_rx_total") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"series"`) {
		t.Errorf("/metrics.json: %d %q", code, body)
	}
	code, body := get("/healthz")
	if code != 200 {
		t.Errorf("/healthz: %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil || health["status"] != "ok" {
		t.Errorf("/healthz body = %q (%v)", body, err)
	}
	if code, _ := get("/trace"); code != 200 {
		t.Errorf("/trace: %d", code)
	}
	if code, _ := get("/trace?since=banana"); code != 400 {
		t.Errorf("/trace with a malformed cursor: %d, want 400", code)
	}
}

func TestServeLifecycle(t *testing.T) {
	r := exampleRegistry()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "tinyleo_agents 4") {
		t.Errorf("served metrics:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}
