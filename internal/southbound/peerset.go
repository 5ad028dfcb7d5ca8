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
// in batch order, a MsgSlotSnapshot replaces the set. A payload that does
// not decode is rejected and leaves the set as it was; any other message
// type is not an ISL command and leaves it unchanged.
func (s *PeerSet) Apply(m *Message) error {
	switch m.Type {
	case MsgSlotDelta:
		ops, err := DecodeSlotDelta(m.Payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.peers == nil {
			s.peers = map[uint32]struct{}{}
		}
		for _, op := range ops {
			if op.Up {
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
	return sortedPeers(s.peers)
}
