package southbound

import "sync"

// PeerSet is the receiving half of slot-delta enforcement: one satellite's
// applied ISL peer set, as the controller's DeltaEnforcer has commanded it.
// The zero value is an empty set ready for use; Apply and Peers may be
// called from different goroutines.
type PeerSet struct {
	mu sync.Mutex
	//tinyleo:guardedby mu
	peers map[uint32]struct{}
}

// Apply folds one command into the set: a MsgSlotDelta's ops are applied
// in batch order, straight from the payload, a MsgSlotSnapshot replaces
// the set. A payload is validated whole before anything is applied: one
// that does not decode is rejected and leaves the set as it was. Any other
// message type is not an ISL command and leaves it unchanged. Apply keeps
// nothing of m, so it suits a borrowed Agent.OnCommand message; a delta on
// a warm set allocates nothing.
func (s *PeerSet) Apply(m *Message) error {
	switch m.Type {
	case MsgSlotDelta:
		n, err := slotDeltaCount(m.Payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.peers == nil {
			s.peers = map[uint32]struct{}{}
		}
		for i := range n {
			if op := slotDeltaOpAt(m.Payload, i); op.Up {
				s.peers[op.Peer] = struct{}{}
			} else {
				delete(s.peers, op.Peer)
			}
		}
	case MsgSlotSnapshot:
		peers, err := DecodeSlotSnapshot(m.Payload)
		if err != nil {
			return err
		}
		set := make(map[uint32]struct{}, len(peers))
		for _, p := range peers {
			set[p] = struct{}{}
		}
		s.mu.Lock()
		s.peers = set
		s.mu.Unlock()
	}
	return nil
}

// Peers returns the applied peer set in ascending order.
func (s *PeerSet) Peers() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedPeers(make([]uint32, 0, len(s.peers)), s.peers)
}
