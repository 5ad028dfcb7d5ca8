package testground

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
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

// metricsPoller snapshots a controller's /metrics.json periodically,
// keeping the last body that decodes. The controller exits on its own
// schedule and writes the same document to its -metrics-out file; the
// poller's copy stands in for that file only if the controller died
// before writing it.
type metricsPoller struct {
	addr string
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	//tinyleo:guardedby mu
	raw []byte
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
	resp, err := cl.Get("http://" + p.addr + "/metrics.json")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	if _, err := obs.DecodeDoc(body); err != nil {
		return
	}
	p.mu.Lock()
	p.raw = body
	p.mu.Unlock()
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

// WriteRaw writes the last /metrics.json body to path.
func (p *metricsPoller) WriteRaw(path string) error {
	p.mu.Lock()
	raw := p.raw
	p.mu.Unlock()
	if raw == nil {
		return fmt.Errorf("testground: no metrics snapshot collected from %s", p.addr)
	}
	return os.WriteFile(path, raw, 0o644)
}

// readSamples loads a /metrics.json document from a file.
func readSamples(path string) ([]obs.Sample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := obs.DecodeDoc(raw)
	if err != nil {
		return nil, err
	}
	return doc.Series, nil
}
