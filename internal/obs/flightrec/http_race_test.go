package flightrec

// Concurrency coverage for the flight recorder's telemetry endpoints:
// /slo evaluates the SLO engine and /trace streams the ring while the
// recorder is being written from multiple goroutines — part of the
// `go test -race ./internal/obs/...` tier.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestSLOAndEventsEndpointsUnderConcurrentWrites(t *testing.T) {
	reg := obs.NewRegistry(true)
	avail := reg.Gauge("tinyleo_mpc_enforcement_ratio")
	avail.Set(1)
	compiles := reg.Counter("tinyleo_mpc_compile_total")
	Enable(Options{
		Rules: []Rule{
			{Name: "availability", Kind: SLOAvailability, Op: ">=", Threshold: 0.95},
			{Name: "tinyleo_mpc_compile_total", Kind: SLOMetric, Metric: "tinyleo_mpc_compile_total", Op: "<=", Threshold: 1e9},
		},
		Registries: []*obs.Registry{reg},
	})
	defer Disable()
	defer obs.Trace().Disable()
	srv := httptest.NewServer(obs.NewHandler(reg))
	defer srv.Close()

	const writers, readers, iters = 4, 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				Emit(CompDataplane, "drop", "sat", strconv.Itoa(w), "reason", "race")
				Emit(CompMPC, "isl_fail", "a", strconv.Itoa(i), "b", strconv.Itoa(i+1))
				avail.Set(float64(i % 2)) // toggle across the threshold
				compiles.Inc()
				RecordSlot(SlotState{Time: float64(i), Kind: "compile",
					InterLinks: [][2]int{{w, i}}})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/5; i++ {
				resp, err := http.Get(srv.URL + "/slo")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/slo status = %d", resp.StatusCode)
					return
				}
				var doc struct {
					Breached int          `json:"breached"`
					Rules    []RuleStatus `json:"rules"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Errorf("/slo body: %v", err)
					return
				}
				if len(doc.Rules) != 2 {
					t.Errorf("/slo rules = %d, want 2", len(doc.Rules))
					return
				}
				resp, err = http.Get(srv.URL + "/trace?since=5")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

func TestSLOEndpointDisabledRecorder(t *testing.T) {
	registerHTTP() // normally done by Enable
	engineMu.Lock()
	saved := defaultEngine
	defaultEngine = nil
	engineMu.Unlock()
	defer func() {
		engineMu.Lock()
		defaultEngine = saved
		engineMu.Unlock()
	}()
	srv := httptest.NewServer(obs.NewHandler(obs.NewRegistry(false)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/slo with no engine: status %d, want 503", resp.StatusCode)
	}
}
