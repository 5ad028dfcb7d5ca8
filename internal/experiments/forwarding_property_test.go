package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataplane"
	"repro/internal/intent"
)

// segmentWatch sits on the network's next-hop seam in front of the
// production router and notes every packet whose current segment index went
// backwards between two routing decisions.
type segmentWatch struct {
	inner     dataplane.Router
	last      map[*dataplane.Packet]int
	regressed int
}

func (w *segmentWatch) Route(s *dataplane.Satellite, p *dataplane.Packet) dataplane.Decision {
	d := w.inner.Route(s, p)
	idx := len(p.Geo().Segments()) - int(p.Geo().SegmentsLeft)
	if idx < w.last[p] {
		w.regressed++
	}
	w.last[p] = idx
	return d
}

// enforcedRoutes lists, for every ordered pair of populated cells, the two
// shortest intent routes whose every hop the compiled snapshot enforces.
func enforcedRoutes(tb *chaos.Testbed) []intent.Route {
	var out []intent.Route
	for _, src := range tb.Cells {
		for _, dst := range tb.Cells {
			if src == dst {
				continue
			}
			routes, _ := tb.Topo.MultipathRoutes(src, dst, 2)
			for _, r := range routes {
				if routeEnforced(tb, r) {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// TestAnycastForwardingProperties checks §4.3's promises on the one testbed
// at the ledger's forward-mix size (529 satellites, 200 Gbps ISLs).
//
// With no link down, every enforced intent route delivers; the packet visits
// no satellite twice, walks exactly the route's cells in order, never moves
// its segment cursor backwards, and is no faster than the shortest path over
// the compiled ISLs (stretch ≥ 1; serialisation only adds). Seen to catch two
// mutations of Anycast.Route: skipping Advance() (the own-cell segment is
// never consumed, so the first route's packet never leaves its ingress cell)
// and forwarding to a peer outside the next cell (dropping the
// `ps.Cell != d.NextCell` filter: the third route's packet wanders off the
// route until the hop limit).
//
// Under a seeded 10 % ISL-failure set what §4.3 promises is asserted: every
// packet is delivered, buffered or queue-dropped, never `no route` and never
// `hop limit` — a packet whose cell has lost every ISL toward the next cell
// goes round the gateway ring once and is buffered for the repair.
func TestAnycastForwardingProperties(t *testing.T) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{
		Sats: 529, ISLRateBps: dataplane.ISLRateBpsDefault, QueueLimit: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	routes := enforcedRoutes(tb)
	if len(routes) < 20 {
		t.Fatalf("only %d enforced routes on the testbed", len(routes))
	}
	watch := &segmentWatch{inner: tb.Net.Router, last: map[*dataplane.Packet]int{}}
	tb.Net.Router = watch
	drops := map[string]int{}
	tb.Net.OnDrop = func(_ *dataplane.Satellite, _ *dataplane.Packet, reason string) { drops[reason]++ }

	for _, r := range routes {
		p, delay := sendOnce(tb, r.Cells[0], r)
		if p == nil {
			t.Fatalf("route %v not delivered (drops %v)", r.Cells, drops)
		}
		seen := map[int]bool{}
		var cells []int
		for _, sat := range p.HopTrace {
			if seen[sat] {
				t.Fatalf("route %v: trace %v repeats satellite %d", r.Cells, p.HopTrace, sat)
			}
			seen[sat] = true
			if c := tb.Net.Sats[sat].Cell; len(cells) == 0 || cells[len(cells)-1] != c {
				cells = append(cells, c)
			}
		}
		if !slices.Equal(cells, r.Cells) {
			t.Fatalf("route %v: trace %v walked cells %v", r.Cells, p.HopTrace, cells)
		}
		if s := stretch(tb, p, delay); s < 1-1e-9 {
			t.Fatalf("route %v: stretch %v < 1 (delay %v s)", r.Cells, s, delay)
		}
	}
	if watch.regressed != 0 || len(drops) != 0 {
		t.Fatalf("healthy network: %d segment-cursor regressions, drops %v", watch.regressed, drops)
	}

	rng := rand.New(rand.NewSource(16))
	links := tb.Net.Links()
	for _, i := range rng.Perm(len(links))[:len(links)/10] {
		links[i].Down()
	}
	delivered := 0
	for _, r := range routes {
		if p, _ := sendOnce(tb, r.Cells[0], r); p != nil {
			delivered++
		}
	}
	buffered := 0
	for _, s := range tb.Net.Sats {
		buffered += len(s.Buffer)
	}
	queued := drops["link down or queue full"]
	t.Logf("%d routes, %d of %d ISLs down: %d delivered, %d buffered, %d queue-dropped",
		len(routes), len(links)/10, len(links), delivered, buffered, queued)
	if len(drops) > 1 || len(drops) == 1 && queued == 0 || watch.regressed != 0 {
		t.Errorf("under failures: drops %v (only queue drops are allowed), %d segment-cursor regressions", drops, watch.regressed)
	}
	if got := delivered + buffered + queued; got != len(routes) {
		t.Errorf("%d of %d packets accounted for (drops %v)", got, len(routes), drops)
	}
}
