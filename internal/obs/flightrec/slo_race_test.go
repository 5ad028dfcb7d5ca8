package flightrec

import (
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestEngineEvalConcurrent drives Eval and ServeHTTP from concurrent
// goroutines: under -race it pins the engine's locking discipline (status
// under mu, the tracer locked inside it).
func TestEngineEvalConcurrent(t *testing.T) {
	var log obs.Tracer
	log.Enable(64)
	e := NewEngine(&log, nil, Rule{Name: "failure_events", Kind: SLOFailureEvents, Op: "<=", Threshold: 1e9})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
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
