package netem

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

// The queue's contract is a total order: whatever mix of timers and link
// arrivals is scheduled, from outside or from inside a running event, they
// execute sorted by (time, scheduling sequence). Delays are multiples of
// 0.25 s on infinite-rate links, so most events tie on time and only the
// sequence separates them.
func TestExecutionOrderIsTimeThenSequence(t *testing.T) {
	type scheduled struct {
		at  float64
		seq int64
		id  int
	}
	rng := rand.New(rand.NewSource(7))
	s := NewSim()
	var want []scheduled
	var got []int
	links := make([]*Link, 4)
	for i := range links {
		links[i] = NewLink(s, 0, 1, 0, 0.25*float64(i), 0, func(_, _ int, payload any) {
			got = append(got, payload.(int))
		})
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		id := len(want)
		if rng.Intn(2) == 0 {
			delay := 0.25 * float64(rng.Intn(4))
			s.Schedule(delay, func() {
				got = append(got, id)
				for k := rng.Intn(3); k > 0 && depth < 3; k-- {
					schedule(depth + 1)
				}
			})
			want = append(want, scheduled{s.Now() + delay, s.seq, id})
		} else {
			l := links[rng.Intn(len(links))]
			if !l.Send(rng.Intn(2), 100, id) {
				t.Fatal("send failed")
			}
			want = append(want, scheduled{s.Now() + l.Delay, s.seq, id})
		}
	}
	for i := 0; i < 2000; i++ {
		schedule(0)
	}
	for s.Step() {
	}
	slices.SortFunc(want, func(a, b scheduled) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if len(got) != len(want) || len(want) < 3000 {
		t.Fatalf("executed %d of %d events, want all of >= 3000", len(got), len(want))
	}
	ties := 0
	for i, w := range want {
		if got[i] != w.id {
			t.Fatalf("event %d executed was %d, reference order has %d (t=%v seq=%d)", i, got[i], w.id, w.at, w.seq)
		}
		if i > 0 && want[i-1].at == w.at {
			ties++
		}
	}
	if ties < len(want)/2 {
		t.Errorf("only %d of %d events tied on time: the sequence tie-break is barely exercised", ties, len(want))
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	fired := 0
	s.Schedule(1, func() {
		s.Schedule(1, func() { fired++ })
	})
	s.Run(3)
	if fired != 1 {
		t.Errorf("nested event fired %d times", fired)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(5, func() { fired = true })
	s.Run(2)
	if fired {
		t.Error("event past horizon fired")
	}
	if s.Now() != 2 {
		t.Errorf("clock = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run(10)
	if !fired {
		t.Error("event never fired")
	}
}

// A popped or drained slot must not pin what its event carried: the queue
// holds events by value and shrinks by reslicing, so a timer's closure or an
// arrival's link and packet left in the backing array's spare capacity would
// stay reachable for as long as the simulator does. A timer's closure rides
// in the payload word, which keeps an event at 48 bytes.
func TestDrainedQueueReleasesEvents(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 48 {
		t.Errorf("an event is %d bytes, want 48", size)
	}
	s := NewSim()
	l := NewLink(s, 1, 2, 0, 0.5, 0, nil)
	for i := 0; i < 64; i++ {
		payload := make([]byte, 1200)
		if i%2 == 0 {
			s.Schedule(float64(i%7), func() { _ = payload })
		} else {
			s.Schedule(float64(i%7), func() { l.Send(1, len(payload), payload) })
		}
	}
	spareIsClear := func(when string) {
		t.Helper()
		backing := s.events[:cap(s.events)]
		if len(backing) < 64 {
			t.Fatalf("backing array holds %d slots, want >= 64", len(backing))
		}
		for i, ev := range backing[len(s.events):] {
			if ev.link != nil || ev.payload != nil {
				t.Errorf("%s: spare slot %d still holds link=%v payload=%v",
					when, len(s.events)+i, ev.link != nil, ev.payload != nil)
			}
		}
	}
	s.Run(3) // timers and arrivals popped, others of both kinds still queued
	if s.Pending() == 0 || s.Pending() >= 64 {
		t.Fatalf("%d events pending mid-run, want some popped and some left", s.Pending())
	}
	spareIsClear("mid-run")
	s.Run(10)
	if s.Pending() != 0 {
		t.Fatalf("%d events left after Run", s.Pending())
	}
	if l.RxPackets != 32 {
		t.Fatalf("%d arrivals went through the queue, want 32", l.RxPackets)
	}
	spareIsClear("drained")
}

// Run with a horizon behind the clock runs nothing and leaves the clock
// where it is, whether or not an event is pending.
func TestRunNeverMovesTheClockBack(t *testing.T) {
	s := NewSim()
	fired := 0
	s.Schedule(5, func() { fired++ })
	s.Schedule(10, func() { fired++ })
	s.Run(5)
	if s.Now() != 5 || fired != 1 {
		t.Fatalf("after Run(5): clock %v, %d fired, want 5 and 1", s.Now(), fired)
	}
	s.Run(2)
	if s.Now() != 5 || fired != 1 || s.Pending() != 1 {
		t.Errorf("Run(2) at 5 with an event pending: clock %v, %d fired, %d pending, want 5, 1, 1",
			s.Now(), fired, s.Pending())
	}
	s.Run(20)
	s.Run(3)
	if s.Now() != 20 || fired != 2 {
		t.Errorf("Run(3) at 20 with nothing pending: clock %v, %d fired, want 20 and 2", s.Now(), fired)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay accepted")
		}
	}()
	NewSim().Schedule(-1, func() {})
}

func TestLinkDelivery(t *testing.T) {
	s := NewSim()
	var gotAt float64
	var gotPayload any
	l := NewLink(s, 1, 2, 8000, 0.01, 0, func(at, from int, payload any) {
		if at != 2 || from != 1 {
			t.Errorf("delivered at=%d from=%d", at, from)
		}
		gotAt = s.Now()
		gotPayload = payload
	})
	// 100 bytes at 8000 bps = 0.1 s serialization + 0.01 propagation.
	if !l.Send(1, 100, "hello") {
		t.Fatal("send failed")
	}
	s.Run(1)
	if math.Abs(gotAt-0.11) > 1e-9 {
		t.Errorf("arrival at %v, want 0.11", gotAt)
	}
	if gotPayload != "hello" {
		t.Errorf("payload = %v", gotPayload)
	}
	if l.TxPackets != 1 || l.RxPackets != 1 || l.TxBytes != 100 {
		t.Errorf("stats: %+v", *l)
	}
}

func TestLinkSerializationQueuing(t *testing.T) {
	s := NewSim()
	var arrivals []float64
	l := NewLink(s, 1, 2, 8000, 0, 0, func(at, from int, payload any) {
		arrivals = append(arrivals, s.Now())
	})
	// Two back-to-back 100-byte packets: 0.1 s each, FIFO.
	l.Send(1, 100, nil)
	l.Send(1, 100, nil)
	s.Run(1)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if math.Abs(arrivals[0]-0.1) > 1e-9 || math.Abs(arrivals[1]-0.2) > 1e-9 {
		t.Errorf("arrivals = %v, want [0.1 0.2]", arrivals)
	}
}

func TestLinkBidirectionalIndependentQueues(t *testing.T) {
	s := NewSim()
	n := 0
	l := NewLink(s, 1, 2, 8000, 0, 0, func(at, from int, payload any) { n++ })
	l.Send(1, 100, nil)
	l.Send(2, 100, nil)
	s.Run(0.15)
	if n != 2 {
		t.Errorf("directions not independent: %d arrived", n)
	}
}

func TestLinkQueueLimitDrops(t *testing.T) {
	s := NewSim()
	delivered := 0
	l := NewLink(s, 1, 2, 8000, 0, 2, func(at, from int, payload any) { delivered++ })
	ok1 := l.Send(1, 100, nil)
	ok2 := l.Send(1, 100, nil)
	ok3 := l.Send(1, 100, nil) // exceeds queue of 2
	if !ok1 || !ok2 || ok3 {
		t.Errorf("sends: %v %v %v", ok1, ok2, ok3)
	}
	s.Run(1)
	if delivered != 2 || l.Drops != 1 {
		t.Errorf("delivered=%d drops=%d", delivered, l.Drops)
	}
}

func TestLinkDown(t *testing.T) {
	s := NewSim()
	delivered := 0
	l := NewLink(s, 1, 2, 0, 0.05, 0, func(at, from int, payload any) { delivered++ })
	l.Down()
	if l.Send(1, 100, nil) {
		t.Error("send on down link succeeded")
	}
	l.Up()
	l.Send(1, 100, nil)
	// Take it down while the packet is in flight: packet is lost.
	s.Schedule(0.01, func() { l.Down() })
	s.Run(1)
	if delivered != 0 {
		t.Error("in-flight packet survived link failure")
	}
	if l.Drops != 2 {
		t.Errorf("drops = %d", l.Drops)
	}
	if l.LostInFlight != 1 {
		t.Errorf("lost in flight = %d, want 1", l.LostInFlight)
	}
}

func TestLinkDownMidFlightThenUp(t *testing.T) {
	// Regression: the Up/Down contract says packets in flight when the
	// link goes down are lost. A flap that completes before the arrival
	// time (down at 10 ms, up at 20 ms, arrival at 50 ms) used to deliver
	// the packet because only the delivery-time administrative state was
	// checked.
	s := NewSim()
	delivered := 0
	l := NewLink(s, 1, 2, 0, 0.05, 0, func(at, from int, payload any) { delivered++ })
	if !l.Send(1, 100, nil) {
		t.Fatal("send failed")
	}
	s.Schedule(0.01, func() { l.Down() })
	s.Schedule(0.02, func() { l.Up() })
	s.Run(1)
	if delivered != 0 {
		t.Error("packet in flight during a flap was delivered")
	}
	if l.Drops != 1 || l.LostInFlight != 1 {
		t.Errorf("drops = %d lostInFlight = %d, want 1/1", l.Drops, l.LostInFlight)
	}
	if !l.IsUp() {
		t.Error("link should be administratively up again")
	}
	// A packet sent after the flap completes is unaffected.
	l.Send(1, 100, nil)
	s.Run(2)
	if delivered != 1 {
		t.Errorf("post-flap delivery = %d, want 1", delivered)
	}
}

func TestUtilization(t *testing.T) {
	s := NewSim()
	l := NewLink(s, 1, 2, 8000, 0, 0, nil)
	// 5 packets × 0.1 s serialization = 0.5 s busy.
	for i := 0; i < 5; i++ {
		l.Send(1, 100, nil)
	}
	s.Run(1)
	if math.Abs(l.Utilization()-0.5) > 1e-9 {
		t.Errorf("utilization = %v", l.Utilization())
	}
}

func TestPeer(t *testing.T) {
	s := NewSim()
	l := NewLink(s, 7, 9, 0, 0, 0, nil)
	if l.Peer(7) != 9 || l.Peer(9) != 7 || l.Peer(3) != -1 {
		t.Error("Peer wrong")
	}
}

func TestInfiniteRateLink(t *testing.T) {
	s := NewSim()
	var at float64
	l := NewLink(s, 1, 2, 0, 0.25, 0, func(int, int, any) { at = s.Now() })
	l.Send(1, 1<<20, nil)
	s.Run(1)
	if math.Abs(at-0.25) > 1e-9 {
		t.Errorf("rate-0 (infinite) link arrival = %v", at)
	}
}

func TestImpairmentLoss(t *testing.T) {
	s := NewSim()
	delivered := 0
	l := NewLink(s, 1, 2, 0, 0.001, 0, func(at, from int, payload any) { delivered++ })
	im := NewImpairment(42, 0.5)
	im.Attach(s, l, 100)
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(1, 100, nil)
	}
	s.Run(10)
	if delivered == 0 || delivered == n {
		t.Fatalf("loss model inert: %d/%d delivered", delivered, n)
	}
	frac := float64(delivered) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("delivery fraction %v, want ≈0.5", frac)
	}
	// Regression: stochastic channel loss must NOT pollute Link.Drops
	// (the queue-overflow / link-down counter); it has its own counter.
	if l.Drops != 0 {
		t.Errorf("impairment loss leaked into Link.Drops: %d", l.Drops)
	}
	if im.Losses != int64(n-delivered) {
		t.Errorf("impairment losses = %d, want %d", im.Losses, n-delivered)
	}
}

func TestImpairmentLossWindow(t *testing.T) {
	// LossUntil bounds the storm: packets delivered after the window pass
	// untouched.
	s := NewSim()
	delivered := 0
	l := NewLink(s, 1, 2, 0, 0.001, 0, func(at, from int, payload any) { delivered++ })
	im := NewImpairment(3, 1.0) // lose everything...
	im.LossUntil = 1.0          // ...but only during the first second
	im.Attach(s, l, 100)
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(float64(i)*0.3, func() { l.Send(1, 10, nil) })
	}
	s.Run(10)
	// Sends at t=0.0,0.3,0.6,0.9 arrive inside the window and are lost;
	// the remaining 6 arrive after t=1.0 and survive.
	if delivered != 6 {
		t.Errorf("delivered = %d, want 6", delivered)
	}
	if im.Losses != 4 {
		t.Errorf("losses = %d, want 4", im.Losses)
	}
}

func TestImpairmentFlaps(t *testing.T) {
	s := NewSim()
	l := NewLink(s, 1, 2, 0, 0, 0, nil)
	im := NewImpairment(7, 0)
	im.FlapRate = 2 // ~2 flaps/s
	im.FlapDown = 0.05
	im.Attach(s, l, 10)
	downObserved := false
	for i := 0; i < 1000; i++ {
		s.Schedule(float64(i)*0.01, func() {
			if !l.IsUp() {
				downObserved = true
			}
		})
	}
	s.Run(10)
	if !downObserved {
		t.Error("link never observed down despite flapping")
	}
	if !l.IsUp() && s.Pending() == 0 {
		t.Error("link left down after horizon")
	}
}

func TestImpairmentDeterministic(t *testing.T) {
	run := func() int {
		s := NewSim()
		delivered := 0
		l := NewLink(s, 1, 2, 0, 0.001, 0, func(int, int, any) { delivered++ })
		NewImpairment(9, 0.3).Attach(s, l, 100)
		for i := 0; i < 500; i++ {
			l.Send(1, 10, nil)
		}
		s.Run(5)
		return delivered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic impairment: %d vs %d", a, b)
	}
}

// BenchmarkSimStep is one arrival popped and one packet sent with ~10,000
// events queued, the depth bench/'s forward-mix runs at: every arrival sends
// the packet back the way it came.
func BenchmarkSimStep(b *testing.B) {
	const inFlight = 10000
	s := NewSim()
	links := make([]*Link, 100)
	for i := range links {
		var l *Link
		l = NewLink(s, 0, 1, 200e9, 0.001*float64(1+i%7), 0, func(at, _ int, payload any) {
			l.Send(at, 100, payload)
		})
		links[i] = l
	}
	for i := 0; i < inFlight; i++ {
		links[i%len(links)].Send(i%2, 100, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if s.Pending() != inFlight {
		b.Fatalf("%d events queued after the run, want %d", s.Pending(), inFlight)
	}
}
