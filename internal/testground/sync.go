package testground

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Well-known coordination names the runner and the binaries agree on.
const (
	// BarrierAgentsReady is the start barrier: every agent arrives after
	// resolving the controller address and before dialing it, so no
	// agent registers until the whole fleet is launched.
	BarrierAgentsReady = "agents-ready"
	// ParamControllerAddr is the controller's southbound listen address,
	// published by tinyleo-ctl -sync once it is accepting connections.
	ParamControllerAddr = "controller_addr"
	// ParamMetricsAddr is the controller's telemetry address (the /fleet
	// and /metrics surface), published by tinyleo-ctl -sync.
	ParamMetricsAddr = "metrics_addr"
)

// barrier is one named rendezvous point.
type barrier struct {
	need     int
	arrived  int
	released chan struct{}
}

// Sync is the campaign coordination service: named barriers processes
// arrive at and block on until N peers have arrived, plus a key/value
// parameter store late starters poll (the controller publishes its
// bound addresses there, so every port in a plan can be :0). It is used
// in-process by the runner and over HTTP by the launched binaries:
//
//	GET  /healthz            liveness
//	GET  /param/NAME         parameter value, 404 until published
//	POST /param/NAME         publish (body = value)
//	POST /barrier/NAME       arrive at a defined barrier and block until
//	                         released (?timeout_s= bounds the wait)
type Sync struct {
	mu sync.Mutex
	//tinyleo:guardedby mu
	params map[string]string
	//tinyleo:guardedby mu
	barriers map[string]*barrier

	srv *http.Server
	ln  net.Listener
}

// NewSync builds an empty service; Define barriers, then Start it.
func NewSync() *Sync {
	return &Sync{params: map[string]string{}, barriers: map[string]*barrier{}}
}

// Define registers a barrier that releases after need arrivals. The
// first definition wins; redefining is a no-op.
func (s *Sync) Define(name string, need int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.barriers[name]; ok {
		return
	}
	b := &barrier{need: need, released: make(chan struct{})}
	if need <= 0 {
		close(b.released)
	}
	s.barriers[name] = b
}

// SetParam publishes a parameter.
func (s *Sync) SetParam(name, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.params[name] = value
}

// Param reads a parameter.
func (s *Sync) Param(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.params[name]
	return v, ok
}

// WaitParam polls until the parameter is published or the timeout
// expires (the in-process mirror of the HTTP client's WaitParam).
func (s *Sync) WaitParam(name string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if v, ok := s.Param(name); ok {
			return v, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("testground: param %q not published within %s", name, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// arrive records one arrival at a defined barrier and returns it to wait
// on.
func (s *Sync) arrive(name string) (*barrier, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.barriers[name]
	if !ok {
		return nil, fmt.Errorf("testground: unknown barrier %q", name)
	}
	select {
	case <-b.released:
		// Late arrival at an already-released barrier passes through.
		return b, nil
	default:
	}
	b.arrived++
	if b.arrived >= b.need {
		close(b.released)
	}
	return b, nil
}

// WaitReleased blocks until the barrier releases without arriving at it
// (the runner observes the fleet's start without being part of it).
func (s *Sync) WaitReleased(name string, timeout time.Duration) error {
	s.mu.Lock()
	b, ok := s.barriers[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("testground: unknown barrier %q", name)
	}
	select {
	case <-b.released:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("testground: barrier %q not released within %s (%d of %d arrived)",
			name, timeout, b.arrived, b.need)
	}
}

// Start serves the sync API on addr ("127.0.0.1:0" for an ephemeral
// port; read it back with Addr or URL).
func (s *Sync) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("testground: sync listen: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s}
	//tinyleo:goroutine Serve returns when Close shuts the listener down
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr is the bound listen address.
func (s *Sync) Addr() string { return s.ln.Addr().String() }

// URL is the service base URL the -sync flags take.
func (s *Sync) URL() string { return "http://" + s.Addr() }

// Close stops the HTTP service (barrier waiters in flight are released
// with an error by the closed connection).
func (s *Sync) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// ServeHTTP routes the sync API.
func (s *Sync) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		fmt.Fprintln(w, "ok")
	case strings.HasPrefix(r.URL.Path, "/param/"):
		s.serveParam(w, r, strings.TrimPrefix(r.URL.Path, "/param/"))
	case strings.HasPrefix(r.URL.Path, "/barrier/"):
		s.serveBarrier(w, r, strings.TrimPrefix(r.URL.Path, "/barrier/"))
	default:
		http.NotFound(w, r)
	}
}

func (s *Sync) serveParam(w http.ResponseWriter, r *http.Request, name string) {
	if name == "" {
		http.Error(w, "missing parameter name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		v, ok := s.Param(name)
		if !ok {
			http.Error(w, "parameter not published: "+name, http.StatusNotFound)
			return
		}
		fmt.Fprint(w, v)
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.SetParam(name, string(body))
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Sync) serveBarrier(w http.ResponseWriter, r *http.Request, name string) {
	if name == "" {
		http.Error(w, "missing barrier name", http.StatusBadRequest)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	timeout := 120 * time.Second
	if t := r.URL.Query().Get("timeout_s"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v <= 0 {
			http.Error(w, "bad timeout_s: "+t, http.StatusBadRequest)
			return
		}
		timeout = time.Duration(v * float64(time.Second))
	}
	b, err := s.arrive(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	select {
	case <-b.released:
		fmt.Fprintln(w, "released")
	case <-time.After(timeout):
		http.Error(w, "barrier timeout: "+name, http.StatusRequestTimeout)
	case <-r.Context().Done():
	}
}
