// Package netem is a discrete-event packet-network emulator: the execution
// substrate for TinyLEO's data-plane experiments (§6.3). It models links
// with finite rate, speed-of-light propagation delay, bounded FIFO queues,
// and link up/down state, and measures utilization, drops, and delivery
// latency. It plays the role StarryNet's container testbed plays in the
// paper — the measured quantities (per-hop forwarding behaviour, RTT,
// throughput, failover time) are identical.
package netem

import "math"

// Sim is a discrete-event simulator clock.
type Sim struct {
	now    float64
	seq    int64
	events []event // binary min-heap on (at, seq), by value: a warm queue allocates nothing
	// OnLost, if set, receives the payload of each packet a link lost in
	// flight, so its owner can reclaim it; the link alone counts the loss
	// (Drops, LostInFlight). One hook serves every link: a per-link one
	// would grow each Link past its 160 B size class.
	OnLost func(payload any)
}

// NewSim creates a simulator at time 0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Schedule runs fn after delay seconds (delay ≥ 0): the entry for timers.
func (s *Sim) Schedule(delay float64, fn func()) {
	s.push(delay, event{payload: fn})
}

// Step executes the next event; returns false when none remain.
//
//tinyleo:hotpath
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.at
	if ev.link != nil {
		ev.link.arrive(int(ev.epochDir&1), ev.epochDir>>1, ev.payload)
	} else {
		ev.payload.(func())()
	}
	return true
}

// Run executes the events due by until and then sets the clock to until,
// unless it is already past it: the clock never goes back.
func (s *Sim) Run(until float64) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }

// event is a timer, whose payload is its func(), or, when link is set, the
// arrival of payload at the far end of one of link's directions. A func is
// pointer-shaped, so boxing it allocates nothing; the event is 48 bytes.
type event struct {
	at   float64
	seq  int64 // FIFO tie-break for simultaneous events
	link *Link
	// epochDir is the link's down-epoch at send time << 1 | the direction.
	epochDir int64
	payload  any
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues ev to run after delay seconds, stamping its time and sequence.
func (s *Sim) push(delay float64, ev event) {
	if delay < 0 {
		panic("netem: negative delay")
	}
	s.seq++
	ev.at, ev.seq = s.now+delay, s.seq
	q := append(s.events, ev)
	for i := len(q) - 1; i > 0 && q[i].before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	s.events = q
}

// pop removes and returns the earliest event.
func (s *Sim) pop() event {
	q := s.events
	n := len(q) - 1
	top, last := q[0], q[n]
	// Clear the vacated slot: the slice's spare capacity would otherwise
	// keep the event's closure, link and packet alive.
	q[n] = event{}
	s.events = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	return top
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

	dir [2]direction
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
//
//tinyleo:hotpath
func (l *Link) Send(from int, sizeBytes int, payload any) bool {
	if l.Peer(from) < 0 {
		panic("netem: Send from non-endpoint")
	}
	if !l.up {
		l.Drops++
		return false
	}
	di := l.dirIndex(from)
	d := &l.dir[di]
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
	l.sim.push(arrive-l.sim.now, event{link: l, epochDir: l.downEpoch<<1 | int64(di), payload: payload})
	return true
}

// arrive is the far end of Send: the packet sent in direction di while the
// link's down-epoch was epoch reaches the peer, unless the link failed.
//
//tinyleo:hotpath
func (l *Link) arrive(di int, epoch int64, payload any) {
	l.dir[di].queued--
	if !l.up || l.downEpoch != epoch {
		// The link went down at some point during this packet's
		// flight (possibly flapping back up before arrival): the
		// packet is lost per the Up/Down contract.
		l.Drops++
		l.LostInFlight++
		if l.sim.OnLost != nil {
			l.sim.OnLost(payload)
		}
		return
	}
	l.RxPackets++
	if l.deliver != nil {
		ends := [2]int{l.A, l.B} // direction di runs from ends[di]
		l.deliver(ends[1-di], ends[di], payload)
	}
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
