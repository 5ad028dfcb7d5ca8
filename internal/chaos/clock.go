package chaos

import (
	"sync"
	"time"
)

// VClock is the campaign's virtual wall clock for the southbound
// reliability layer: the engine injects VClock.Now as the controller's
// Clock and advances it explicitly, so ack-timeout behaviour is a pure
// function of the campaign script rather than of real scheduling latency.
type VClock struct {
	mu sync.Mutex
	//tinyleo:guardedby mu
	t time.Time
}

// NewVClock starts a virtual clock at a fixed epoch.
func NewVClock() *VClock {
	return &VClock{t: time.Unix(1_700_000_000, 0)}
}

// Now returns the current virtual time (inject as Controller.Clock).
func (v *VClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

// Advance moves the clock forward by d.
func (v *VClock) Advance(d time.Duration) {
	v.mu.Lock()
	v.t = v.t.Add(d)
	v.mu.Unlock()
}
