package flightrec

import (
	"fmt"
	"sync"
)

// SlotState is one captured control-slot topology: what the MPC compiled
// (or repaired) and what the cells looked like at that instant. It is a
// plain-data mirror of mpc.Snapshot so the recorder stays free of
// control-plane imports.
type SlotState struct {
	// Slot is the recorder-assigned sequence number (set by RecordSlot).
	Slot int `json:"slot"`
	// Time is the orbital time of the slot in seconds.
	Time float64 `json:"t"`
	// Kind distinguishes regular compilations from failure repairs
	// ("compile" | "repair").
	Kind string `json:"kind,omitempty"`
	// InterLinks / RingLinks are the compiled inter-cell and intra-cell
	// ISLs as sorted satellite index pairs.
	InterLinks [][2]int `json:"inter_links,omitempty"`
	RingLinks  [][2]int `json:"ring_links,omitempty"`
	// CellSats maps intent cell → satellites covering it (the coverage
	// map; a cell present with an empty list has lost all coverage).
	CellSats map[int][]int `json:"cell_sats,omitempty"`
	// Gateways maps a directed intent edge "u->v" to the satellites of u
	// serving it.
	Gateways map[string][]int `json:"gateways,omitempty"`
	// Deficits maps "u->v" to unfilled gateway slots.
	Deficits map[string]int `json:"deficits,omitempty"`
	// Enforcement is the intent enforcement ratio after this slot, when
	// known (NaN-free: omitted as 0 when unknown).
	Enforcement float64 `json:"enforcement,omitempty"`
}

// EdgeKey renders a directed intent edge as the "u->v" map key used by
// Gateways and Deficits.
func EdgeKey(u, v int) string { return fmt.Sprintf("%d->%d", u, v) }

// DeficitTotal sums the slot's unfilled gateway slots.
func (s *SlotState) DeficitTotal() int {
	total := 0
	for _, d := range s.Deficits {
		total += d
	}
	return total
}

// SlotCapacity is the snapshot ring size: the newest SlotCapacity control
// slots are kept.
const SlotCapacity = 256

// Snapshotter keeps a bounded ring of per-slot states. RecordSlot
// allocates O(snapshot) per control slot; nothing here is on a
// per-packet path.
type Snapshotter struct {
	mu sync.Mutex
	//tinyleo:guardedby mu
	buf []SlotState
	// seq counts the slots ever recorded: the next slot's number, and
	// (mod capacity) the next ring position to write.
	//tinyleo:guardedby mu
	seq int
}

// enable (re)starts the ring empty.
func (s *Snapshotter) enable() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = make([]SlotState, SlotCapacity)
	s.seq = 0
}

// RecordSlot appends one slot state, assigning its Slot sequence number.
func (s *Snapshotter) RecordSlot(st SlotState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return
	}
	st.Slot = s.seq
	s.buf[s.seq%len(s.buf)] = st
	s.seq++
}

// Slots returns the ring contents oldest-first. A first slot numbered
// above 0 means that many older slots were overwritten.
func (s *Snapshotter) Slots() []SlotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := min(s.seq, len(s.buf))
	out := make([]SlotState, 0, n)
	for i := s.seq - n; i < s.seq; i++ {
		out = append(out, s.buf[i%len(s.buf)])
	}
	return out
}
