package baseline

import "repro/internal/dataplane"

// TableRouter is the routing-table data plane the paper compares geo-segment
// anycast against (Fig. 19b/19d): per-satellite destination → next-hop
// tables written by a remote control plane, no anycast and no local
// failover, so a packet whose next-hop ISL is down waits in the buffer until
// the control plane rewrites the tables and flushes. Its packets (TablePacket)
// carry no segment list; by this router's convention their FlowID is the
// destination satellite. Geo-segment packets pass through to the router it
// replaced, so both kinds share one network.
type TableRouter struct {
	net    *dataplane.Network
	geo    dataplane.Router
	tables map[int]map[uint32]int // satellite → destination satellite → next-hop peer
}

// RouteByTables plugs a TableRouter with empty tables into n's next-hop seam.
func RouteByTables(n *dataplane.Network) *TableRouter {
	r := &TableRouter{net: n, geo: n.Router, tables: map[int]map[uint32]int{}}
	n.Router = r
	return r
}

// InstallPath pins a satellite path into the tables: every satellite on it
// forwards packets for the last one to its successor.
func (r *TableRouter) InstallPath(path []int) {
	dst := uint32(path[len(path)-1])
	for i, sat := range path[:len(path)-1] {
		if r.tables[sat] == nil {
			r.tables[sat] = map[uint32]int{}
		}
		r.tables[sat][dst] = path[i+1]
	}
}

// TablePacket builds a table-routed packet for destination satellite dst.
func TablePacket(dst int, payload []byte) *dataplane.Packet {
	return &dataplane.Packet{Base: dataplane.BaseHeader{
		Ver: dataplane.Version, HopLimit: 64, FlowID: uint32(dst),
	}, Payload: payload}
}

// Route implements dataplane.Router.
func (r *TableRouter) Route(s *dataplane.Satellite, p *dataplane.Packet) dataplane.Decision {
	if p.Geo() != nil {
		return r.geo.Route(s, p)
	}
	dst := p.Base.FlowID
	if uint32(s.ID) == dst {
		return dataplane.Decision{Verb: dataplane.Deliver}
	}
	nh, ok := r.tables[s.ID][dst]
	if !ok {
		return dataplane.Decision{Verb: dataplane.Drop, Reason: "no route"}
	}
	if l := r.net.Link(s.ID, nh); l == nil || !l.IsUp() {
		// No local reroute: wait for the control plane.
		return dataplane.Decision{Verb: dataplane.Buffer, NextCell: -1}
	}
	return dataplane.Decision{Verb: dataplane.Forward, Peer: nh}
}
