package testground

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
)

// inventory walks the run directory and returns its artifact listing,
// sorted by name (report.json itself is excluded: it inventories the
// others).
func inventory(dir string) ([]Artifact, error) {
	var out []Artifact
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if rel == ReportFile {
			return nil
		}
		out = append(out, Artifact{Name: filepath.ToSlash(rel), Bytes: info.Size()})
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, err
}

// metricsPoller snapshots a controller's /metrics.json and /fleet
// surfaces periodically, keeping the last successful responses. The
// controller exits on its own schedule; whatever the poller holds at
// that point is the run's final telemetry view if the controller's own
// exit-time artifacts are missing.
type metricsPoller struct {
	addr string
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	//tinyleo:guardedby mu
	rawMetrics []byte
	//tinyleo:guardedby mu
	samples []obs.Sample
	//tinyleo:guardedby mu
	view *fleet.View
}

// newMetricsPoller starts polling the telemetry address at the
// interval; Stop it before reading.
func newMetricsPoller(addr string, interval time.Duration) *metricsPoller {
	p := &metricsPoller{addr: addr, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop(interval)
	return p
}

func (p *metricsPoller) loop(interval time.Duration) {
	defer close(p.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		p.pollOnce()
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

func (p *metricsPoller) pollOnce() {
	cl := &http.Client{Timeout: 2 * time.Second}
	if resp, err := cl.Get("http://" + p.addr + "/metrics.json"); err == nil {
		func() {
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			doc, err := obs.DecodeDoc(body)
			if err != nil {
				return
			}
			p.mu.Lock()
			p.rawMetrics, p.samples = body, doc.Series
			p.mu.Unlock()
		}()
	}
	if resp, err := cl.Get("http://" + p.addr + "/fleet"); err == nil {
		func() {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var v fleet.View
			if json.NewDecoder(resp.Body).Decode(&v) != nil {
				return
			}
			p.mu.Lock()
			p.view = &v
			p.mu.Unlock()
		}()
	}
}

// Stop halts polling after one final sweep.
func (p *metricsPoller) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// Samples returns the last /metrics.json series set (nil if the
// controller was never reachable).
func (p *metricsPoller) Samples() []obs.Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples
}

// View returns the last /fleet document, or nil.
func (p *metricsPoller) View() *fleet.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.view
}

// WriteRaw dumps the last raw /metrics.json body as an artifact.
func (p *metricsPoller) WriteRaw(path string) error {
	p.mu.Lock()
	raw := p.rawMetrics
	p.mu.Unlock()
	if raw == nil {
		return fmt.Errorf("testground: no metrics snapshot collected from %s", p.addr)
	}
	return os.WriteFile(path, raw, 0o644)
}
