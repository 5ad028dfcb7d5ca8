package baseline

import (
	"slices"
	"testing"

	"repro/internal/dataplane"
)

// chainNet builds a 3-cell chain with 2 gateways per cell and a TableRouter
// on its seam:
//
//	cell 10: sats 0,1   cell 20: sats 2,3   cell 30: sats 4,5
//
// Inter-cell ISLs: 0-2, 1-3 (10↔20) and 2-4, 3-5 (20↔30); ring ISLs 0-1,
// 2-3, 4-5.
func chainNet() (*dataplane.Network, *TableRouter) {
	n := dataplane.NewNetwork()
	for id, c := range []int{10, 10, 20, 20, 30, 30} {
		n.AddSatellite(id, c)
	}
	for _, l := range [][2]int{{0, 2}, {1, 3}, {2, 4}, {3, 5}} {
		n.Connect(l[0], l[1], 0.005)
	}
	for _, ring := range [][]int{{0, 1}, {2, 3}, {4, 5}} {
		n.Connect(ring[0], ring[1], 0.001)
		n.SetRing(ring)
	}
	return n, RouteByTables(n)
}

func TestLegacyForwarding(t *testing.T) {
	n, rt := chainNet()
	rt.InstallPath([]int{0, 2, 4})
	done := false
	n.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) { done = s.ID == 4 }
	n.Inject(0, TablePacket(4, nil))
	n.Sim.Run(1)
	if !done {
		t.Fatal("legacy packet not delivered")
	}
	// Geo-segment packets on the same network still take the anycast path.
	done = false
	n.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) { done = s.Cell == 30 }
	gp, _ := dataplane.NewGeoPacket(99, []int{20, 30}, 1, 1, nil)
	n.Inject(1, gp)
	n.Sim.Run(2)
	if !done {
		t.Fatal("geo packet not delivered beside the routing tables")
	}
}

func TestLegacyNoLocalFailover(t *testing.T) {
	// Same route, but the 0→2 link is down: the legacy plane buffers and
	// waits for the control plane (no ring fallback).
	n, rt := chainNet()
	rt.InstallPath([]int{0, 2, 4})
	n.Link(0, 2).Down()
	var got *dataplane.Packet
	n.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) { got = p }
	n.Inject(0, TablePacket(4, nil))
	n.Sim.Run(0.5)
	if got != nil {
		t.Fatal("legacy plane rerouted without control plane")
	}
	if n.Sats[0].Buffered != 1 {
		t.Errorf("buffered = %d", n.Sats[0].Buffered)
	}
	// Control plane finally updates the tables along the detour
	// 0→1 (ring link) →3→5→4 (ring link).
	rt.InstallPath([]int{0, 1, 3, 5, 4})
	n.FlushBuffers()
	n.Sim.Run(1)
	if got == nil {
		t.Fatal("legacy packet lost after table update")
	}
	if want := []int{0, 1, 3, 5, 4}; !slices.Equal(got.HopTrace, want) {
		t.Errorf("trace = %v, want %v", got.HopTrace, want)
	}
}

func TestLegacyNoRouteDrops(t *testing.T) {
	n, _ := chainNet()
	dropped := ""
	n.OnDrop = func(s *dataplane.Satellite, p *dataplane.Packet, r string) { dropped = r }
	n.Inject(0, TablePacket(4, nil)) // empty tables
	n.Sim.Run(1)
	if dropped != "no route" {
		t.Errorf("reason = %q", dropped)
	}
}
