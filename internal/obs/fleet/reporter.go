package fleet

import (
	"sync"
	"time"
)

// Reporter drives an Encoder at a bounded rate: a background loop flushes
// one coalesced report per interval, whatever the underlying event rate.
// A send failure resets the encoder, so the first report after a
// reconnect carries every series again and no increment is ever lost.
type Reporter struct {
	enc  *Encoder
	send func(payload []byte) error

	mu sync.Mutex
	//tinyleo:guardedby mu
	stopped bool
	//tinyleo:guardedby mu
	stop chan struct{}
	//tinyleo:guardedby mu
	done chan struct{}
}

// NewReporter wraps enc with a send function — typically
// (*southbound.Agent).SendTelemetry.
func NewReporter(enc *Encoder, send func(payload []byte) error) *Reporter {
	return &Reporter{enc: enc, send: send}
}

// Flush encodes and sends one report immediately, returning its sequence
// number. On send failure the encoder resets, so the next flush re-ships
// every series (nothing is lost, only delayed).
func (r *Reporter) Flush() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	payload, seq := r.enc.Encode()
	if err := r.send(payload); err != nil {
		r.enc.Reset()
		return seq, err
	}
	return seq, nil
}

// Seq returns the sequence number of the last encoded report.
func (r *Reporter) Seq() uint64 { return r.enc.Seq() }

// Run starts the background flush loop at the given interval. It returns
// immediately; call Stop for a final flush and clean shutdown. Run is a
// no-op if a loop is already running or the reporter was stopped.
func (r *Reporter) Run(interval time.Duration) {
	if interval <= 0 {
		return
	}
	r.mu.Lock()
	if r.stopped || r.stop != nil {
		r.mu.Unlock()
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	stop, done := r.stop, r.done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.Flush() //nolint:errcheck // reset-on-error already handled
			}
		}
	}()
}

// Stop halts the background loop (if any) and sends one final flush so
// the controller sees the last pre-shutdown values.
func (r *Reporter) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	stop, done := r.stop, r.done
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	r.Flush() //nolint:errcheck // best-effort final report
}
