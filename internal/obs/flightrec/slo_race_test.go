package flightrec

import (
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestEngineEvalConcurrent drives Eval and ServeHTTP from concurrent
// goroutines while the rule's series crosses its threshold: under -race it
// pins the engine's locking discipline (status under mu, the tracer locked
// inside it for the breach and recovery events).
func TestEngineEvalConcurrent(t *testing.T) {
	var log obs.Tracer
	log.Enable(64)
	reg := obs.NewRegistry(true)
	deficit := reg.Gauge("tinyleo_mpc_gateway_deficit_slots")
	e := NewEngine(&log, []*obs.Registry{reg}, Rule{
		Name: "tinyleo_mpc_gateway_deficit_slots", Kind: SLOMetric,
		Metric: "tinyleo_mpc_gateway_deficit_slots", Op: "<=", Threshold: 0.5,
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				deficit.Set(float64(i % 2))
				e.Eval()
				e.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slo", nil))
			}
		}()
	}
	wg.Wait()
	if got := e.Eval(); len(got) == 0 {
		t.Fatal("engine lost its rule statuses under concurrent eval")
	}
}
