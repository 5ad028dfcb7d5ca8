package fleet

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/southbound"
)

// Report limits. A report beyond these is malformed (or hostile) and is
// rejected whole — a fleet report is advisory telemetry, never worth a
// controller allocation blowup.
const (
	// MaxReportBytes bounds a report: what one southbound Telemetry
	// message carries. The encoder never exceeds it; rows that do not fit
	// ride the next report.
	MaxReportBytes = southbound.MaxTelemetryPayload
	// MaxReportSeries bounds rows per report.
	MaxReportSeries = 4096
	// MaxStringLen bounds name/label byte lengths.
	MaxStringLen = 512
	// MaxLabels bounds label pairs per series.
	MaxLabels = 32
	// MaxBounds bounds histogram bucket bounds per series.
	MaxBounds = 256
)

// sentRow is what the encoder remembers of a series' last shipped row:
// enough to tell whether the series moved since.
type sentRow struct {
	value, sum float64
	count      int64
}

// Encoder turns successive snapshots of a fixed set of registries into
// sequence-numbered reports: the rows of /metrics.json that changed since
// the last report, with absolute values. Increments between calls
// coalesce into one row and an unchanged series costs no bytes. The first
// report (and the first after Reset) carries every series.
//
// Encoder is safe for concurrent use, though typically one Reporter owns
// it.
type Encoder struct {
	regs []*obs.Registry

	mu sync.Mutex
	//tinyleo:guardedby mu
	seq uint64
	//tinyleo:guardedby mu
	sent map[string]sentRow // series key → last shipped row
}

// NewEncoder creates an encoder over the given registries (snapshotted in
// argument order on every Encode).
func NewEncoder(regs ...*obs.Registry) *Encoder {
	return &Encoder{regs: regs, sent: map[string]sentRow{}}
}

// Reset forgets what was sent: the next Encode ships every series again.
// Call it after a send failure or a transport reconnect. Values are
// absolute, so the receiver needs no notice; the sequence number keeps
// increasing, so it still sees the gap.
func (e *Encoder) Reset() {
	e.mu.Lock()
	e.sent = map[string]sentRow{}
	e.mu.Unlock()
}

// Seq returns the sequence number of the last encoded report.
func (e *Encoder) Seq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Encode snapshots the registries and returns one report — every series
// that moved since it was last shipped, in registration order — plus the
// report's sequence number. An unchanged snapshot yields a report with no
// rows: the heartbeat the aggregator's staleness tracking relies on. A row
// left out for MaxReportBytes or MaxReportSeries stays unsent and rides a
// later report; a non-finite one is retried until it has a JSON form.
func (e *Encoder) Encode() (payload []byte, seq uint64) {
	samples := obs.Snapshot(e.regs...)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	var changed []obs.Sample
	var keys []string
	for i := range samples {
		s := &samples[i]
		key := s.Key()
		if last, ok := e.sent[key]; ok && last == (sentRow{s.Value, s.Sum, s.Count}) {
			continue
		}
		changed, keys = append(changed, *s), append(keys, key)
		if len(changed) == MaxReportSeries {
			break
		}
	}
	payload, rows := obs.EncodeDoc(e.seq, changed, MaxReportBytes)
	for _, i := range rows {
		s := &changed[i]
		e.sent[keys[i]] = sentRow{s.Value, s.Sum, s.Count}
	}
	return payload, e.seq
}
