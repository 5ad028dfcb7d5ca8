// Package netem is a discrete-event packet-network emulator: the execution
// substrate for TinyLEO's data-plane experiments (§6.3). It models links
// with finite rate, speed-of-light propagation delay, bounded FIFO queues,
// and link up/down state, and measures utilization, drops, and delivery
// latency. It plays the role StarryNet's container testbed plays in the
// paper — the measured quantities (per-hop forwarding behaviour, RTT,
// throughput, failover time) are identical.
package netem

import (
	"container/heap"
	"math"
)

// Sim is a discrete-event simulator clock.
type Sim struct {
	now    float64
	seq    int64
	events eventQueue
}

// NewSim creates a simulator at time 0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Schedule runs fn after delay seconds (delay ≥ 0).
func (s *Sim) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic("netem: negative delay")
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Step executes the next event; returns false when none remain.
func (s *Sim) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty or the clock passes until.
func (s *Sim) Run(until float64) {
	for s.events.Len() > 0 {
		if s.events[0].at > until {
			s.now = until
			return
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.events.Len() }

type event struct {
	at  float64
	seq int64 // FIFO tie-break for simultaneous events
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	// Clear the vacated slot: the slice's spare capacity would otherwise
	// keep the event — and whatever packet its closure captured — alive.
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// Link is a bidirectional point-to-point link between two node IDs with a
// serialization rate, propagation delay, and a bounded per-direction FIFO.
type Link struct {
	sim *Sim
	// A and B are the endpoint node IDs.
	A, B int
	// RateBps is the serialization rate in bits per second.
	RateBps float64
	// Delay is the one-way propagation delay in seconds.
	Delay float64
	// QueueLimit is the per-direction queue capacity in packets (0 =
	// unbounded).
	QueueLimit int

	up      bool
	deliver func(at, from int, payload any)
	// downEpoch counts Down() transitions; packets capture it at send time
	// so a flap entirely within a packet's flight still loses the packet.
	downEpoch int64

	dir [2]*direction
	// Stats
	TxPackets, RxPackets, Drops int64
	TxBytes                     int64
	// LostInFlight counts packets lost because the link went down while
	// they were in flight (also included in Drops).
	LostInFlight int64
}

type direction struct {
	busyUntil float64
	queued    int
	busyAccum float64 // total serialization time, for utilization
}

// NewLink creates an up link; deliver is invoked at the receiving node
// when a packet arrives (at = receiver ID, from = sender ID).
func NewLink(sim *Sim, a, b int, rateBps, delay float64, queueLimit int, deliver func(at, from int, payload any)) *Link {
	return &Link{
		sim: sim, A: a, B: b, RateBps: rateBps, Delay: delay,
		QueueLimit: queueLimit, up: true, deliver: deliver,
		dir: [2]*direction{{}, {}},
	}
}

// Up / Down toggle link state; packets in flight when the link goes down
// are lost, even if the link is back up by the time they would arrive.
func (l *Link) Up() { l.up = true }

// Down takes the link down and advances its down-epoch, dooming every
// packet currently in flight (checked at delivery time).
func (l *Link) Down() {
	l.up = false
	l.downEpoch++
}

// IsUp reports the administrative link state.
func (l *Link) IsUp() bool { return l.up }

// Peer returns the other endpoint of the link relative to node id, or -1.
func (l *Link) Peer(id int) int {
	switch id {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	return -1
}

// Send transmits sizeBytes of payload from node `from` toward the peer.
// It returns false if the link is down, from is not an endpoint, or the
// queue is full (the packet is dropped and counted).
func (l *Link) Send(from int, sizeBytes int, payload any) bool {
	to := l.Peer(from)
	if to < 0 {
		panic("netem: Send from non-endpoint")
	}
	if !l.up {
		l.Drops++
		return false
	}
	d := l.dir[l.dirIndex(from)]
	if l.QueueLimit > 0 && d.queued >= l.QueueLimit {
		l.Drops++
		return false
	}
	ser := 0.0
	if l.RateBps > 0 {
		ser = float64(sizeBytes*8) / l.RateBps
	}
	start := math.Max(l.sim.now, d.busyUntil)
	d.busyUntil = start + ser
	d.busyAccum += ser
	d.queued++
	l.TxPackets++
	l.TxBytes += int64(sizeBytes)
	arrive := d.busyUntil + l.Delay
	epoch := l.downEpoch
	l.sim.Schedule(arrive-l.sim.now, func() {
		d.queued--
		if !l.up || l.downEpoch != epoch {
			// The link went down at some point during this packet's
			// flight (possibly flapping back up before arrival): the
			// packet is lost per the Up/Down contract.
			l.Drops++
			l.LostInFlight++
			return
		}
		l.RxPackets++
		if l.deliver != nil {
			l.deliver(to, from, payload)
		}
	})
	return true
}

func (l *Link) dirIndex(from int) int {
	if from == l.A {
		return 0
	}
	return 1
}

// Utilization returns the fraction of [0, now] this link spent serializing
// in either direction (max over directions), the Figure 19c metric.
func (l *Link) Utilization() float64 {
	if l.sim.now == 0 {
		return 0
	}
	u0 := l.dir[0].busyAccum / l.sim.now
	u1 := l.dir[1].busyAccum / l.sim.now
	if u1 > u0 {
		return u1
	}
	return u0
}

// QueuedPackets returns packets currently queued or in flight from node id.
func (l *Link) QueuedPackets(id int) int { return l.dir[l.dirIndex(id)].queued }
