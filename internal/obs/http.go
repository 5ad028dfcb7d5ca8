package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

var processStart = time.Now()

// Extension handlers registered by sibling subsystems (e.g.
// internal/obs/flightrec mounts /slo). They are resolved at
// request time, so registration order relative to NewHandler does not
// matter.
var (
	extMu       sync.RWMutex
	extHandlers = map[string]http.Handler{}
)

// RegisterHandler mounts h at path on every telemetry HTTP surface built
// by NewHandler/Serve (existing servers included). Re-registering a path
// replaces the handler.
func RegisterHandler(path string, h http.Handler) {
	extMu.Lock()
	extHandlers[path] = h
	extMu.Unlock()
}

// NewHandler builds the telemetry HTTP surface over the given registries
// (merged in order) and the default tracer:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/metrics.json  JSON snapshot of every series
//	/healthz       liveness: {"status":"ok","uptime_s":...}
//	/trace         the record ring (spans and events) as JSONL;
//	               ?since=<seq> returns only records newer than seq
//
// plus any extension paths mounted via RegisterHandler (the flight
// recorder adds /slo when enabled).
func NewHandler(regs ...*Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, regs...)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, regs...)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":   "ok",
			"uptime_s": time.Since(processStart).Seconds(),
		})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		// ?since=<seq> is an incremental cursor, so pollers (tinyleo-ctl
		// top) tail the ring without refetching it whole.
		since := uint64(0)
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor: "+s, http.StatusBadRequest)
				return
			}
			since = v
		}
		w.Header().Set("Content-Type", "application/jsonl")
		_ = Trace().WriteSince(w, since)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		extMu.RLock()
		h := extHandlers[r.URL.Path]
		extMu.RUnlock()
		if h == nil {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
	return mux
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the telemetry HTTP surface on addr (":0" picks a free
// port) over the given registries. The returned server runs until Close.
func Serve(addr string, regs ...*Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(regs...)}}
	// Serve returns once Close shuts the listener down.
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
