package obs

// Concurrency coverage for the telemetry HTTP surface: every endpoint is
// hammered while instrument writers mutate the same registries and the
// tracer, the mix `go test -race ./internal/obs/...` must keep clean
// (the flight recorder's /slo endpoint gets the same treatment in
// internal/obs/flightrec).

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestHandlerEndpointsUnderConcurrentWrites(t *testing.T) {
	reg := NewRegistry(true)
	// The /trace endpoints read the process-wide tracer.
	EnableTracing(128)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	const writers, readers, iters = 4, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("race_total", "writer", string(rune('a'+w)))
			g := reg.Gauge("race_gauge")
			h := reg.Histogram("race_seconds", DefBuckets)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) / 1000)
				sp := StartSpan("race.op", "i", "x")
				sp.End()
			}
		}(w)
	}
	paths := []string{"/metrics", "/metrics.json", "/healthz", "/trace", "/trace?since=3", "/no-such-ext"}
	errs := make(chan error, readers*len(paths))
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				for _, p := range paths {
					resp, err := http.Get(srv.URL + p)
					if err != nil {
						errs <- err
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if p == "/no-such-ext" {
						if resp.StatusCode != http.StatusNotFound {
							t.Errorf("%s status = %d, want 404", p, resp.StatusCode)
						}
					} else if resp.StatusCode != http.StatusOK {
						t.Errorf("%s status = %d", p, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRegisterHandlerConcurrentWithRequests(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(true)))
	defer srv.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			RegisterHandler("/race-ext", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write([]byte("ok"))
			}))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			resp, err := http.Get(srv.URL + "/race-ext")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
}
