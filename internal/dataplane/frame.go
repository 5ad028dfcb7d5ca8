package dataplane

import (
	"runtime/metrics"
	"slices"
	"sync"
	"unsafe"
	"weak"
)

// frameSizes are the capacities a recycled frame comes in: Go's allocation
// size classes from 16 B, then whole 8 KiB pages up to the largest wire form,
// so a frame costs what make would charge for its length anyway (a 1,232-byte
// frame is a 1,280-byte object either way). Nothing is smaller than 16 B: the
// runtime batches smaller pointer-free objects into one slot, and a weak
// pointer into such a batch may never clear.
var frameSizes = [...]int32{
	16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240,
	256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896,
	1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456,
	4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880,
	12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264,
	28672, 32768, 40960, 49152, 57344, 65536, 73728,
}

// frameClass returns the index of the smallest frame size that holds n bytes.
func frameClass(n int) int {
	c, _ := slices.BinarySearch(frameSizes[:], int32(n))
	return c
}

// frameNo names a frame the registry made, from 1; 0 is no frame. Its two
// bytes sit in the padding after a Packet's ringLeft, so a Packet stays 144
// bytes, its size class, and a pooledPacket 208.
type frameNo uint16

// maxFrames is how many frames the registry can name at once. Past it, a
// frame is an ordinary allocation that is not recycled.
const maxFrames = 1<<16 - 1

// frameSlot is what the registry keeps of a frame: a weak pointer to its
// first byte, made once when the frame first went to a decoded packet, and
// the address of the packet that holds it (0 while none does). The address
// is an integer, not a reference: it only tells release whether the number
// is still the packet's, and costs no lookup of the frame.
type frameSlot struct {
	ptr   weak.Pointer[byte]
	owner uintptr
}

// frameRegistry recycles the packet codec's wire frames. A frame joins it
// when a decoded packet first takes it (a frame Encode made and its caller
// kept costs no more than an allocation), and from then on is held by
// exactly one of: the pending slot (the frame Encode returned last), an idle
// list, or a decoded packet whose Payload lies in it. The idle lists hold
// numbers, and a number reaches its frame only through the slot's weak
// pointer, so a collection reclaims idle frames; the number of a reclaimed
// frame is vacated when it is next popped or swept.
type frameRegistry struct {
	mu sync.Mutex
	// pending is the frame Encode returned last and pendingNo its number, 0
	// while it has none.
	//tinyleo:guardedby mu
	pending []byte
	//tinyleo:guardedby mu
	pendingNo frameNo
	// slots[no-1] and classes[no-1] are frame no's slot and size class; a
	// vacant slot's pointer is zero.
	//tinyleo:guardedby mu
	slots []frameSlot
	//tinyleo:guardedby mu
	classes []uint8
	//tinyleo:guardedby mu
	idle [len(frameSizes)][]frameNo
	//tinyleo:guardedby mu
	vacant []frameNo
	// sweptAt is the collector's cycle count at the last sweep: only a
	// collection can make another sweep worth running.
	//tinyleo:guardedby mu
	sweptAt uint64
}

// frames is the registry Encode, Decode and release share.
var frames frameRegistry

// pend returns an n-byte frame for Encode to fill and makes it the pending
// frame, the one Decode adopts. The frame it displaces stays with whoever
// holds it and leaves the registry.
//
//tinyleo:hotpath
func (r *frameRegistry) pend(n int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingNo != 0 {
		r.vacateLocked(r.pendingNo)
	}
	r.pending, r.pendingNo = r.reuseLocked(n)
	if r.pending == nil {
		r.pending = make([]byte, frameSizes[frameClass(n)])[:n]
	}
	return r.pending
}

// own gives the decoded packet p its payload's storage. If b is the pending
// frame, p takes it over (or, with no payload, it goes idle at once);
// otherwise the payload is copied into a frame of the registry's, so p shares
// no storage with b.
//
//tinyleo:hotpath
func (r *frameRegistry) own(p *Packet, b []byte) {
	n := len(p.Payload)
	r.mu.Lock()
	if len(b) == len(r.pending) && unsafe.SliceData(b) == unsafe.SliceData(r.pending) {
		no := r.pendingNo
		if no == 0 {
			no = r.registerLocked(r.pending)
		}
		r.pending, r.pendingNo = nil, 0
		if n > 0 {
			r.holdLocked(p, no)
		} else if no != 0 {
			r.idleLocked(no)
		}
		r.mu.Unlock()
		p.Payload = p.Payload[:n:n]
		return
	}
	if n == 0 {
		r.mu.Unlock()
		return
	}
	f, no := r.frameLocked(n)
	r.holdLocked(p, no)
	r.mu.Unlock()
	copy(f, p.Payload)
	p.Payload = f[:n:n]
}

// holdLocked makes frame no (0: an ordinary allocation) the decoded packet
// p's.
func (r *frameRegistry) holdLocked(p *Packet, no frameNo) {
	p.frame = no
	if no != 0 {
		r.slots[no-1].owner = uintptr(unsafe.Pointer(p))
	}
}

// put makes the frame of the packet p idle, provided p still holds its
// number: after a sweep reclaimed the frame of a packet whose Payload was
// replaced, the number may name another packet's frame.
//
//tinyleo:hotpath
func (r *frameRegistry) put(p *Packet) {
	no := p.frame
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slots[no-1].owner != uintptr(unsafe.Pointer(p)) {
		return
	}
	r.slots[no-1].owner = 0
	r.idleLocked(no)
}

// idleLocked puts frame no on its class's idle list.
func (r *frameRegistry) idleLocked(no frameNo) {
	r.idle[r.classes[no-1]] = append(r.idle[r.classes[no-1]], no)
}

// frameLocked returns an n-byte frame of the registry's and its number: an
// idle one if reuseLocked finds one, else a new one (number 0 when every
// number is held by a live frame).
func (r *frameRegistry) frameLocked(n int) ([]byte, frameNo) {
	if f, no := r.reuseLocked(n); f != nil {
		return f, no
	}
	f := make([]byte, frameSizes[frameClass(n)])[:n]
	return f, r.registerLocked(f)
}

// reuseLocked returns an idle n-byte frame of n's class that survived the
// collector, and its number, or nil.
func (r *frameRegistry) reuseLocked(n int) ([]byte, frameNo) {
	c := frameClass(n)
	for len(r.idle[c]) > 0 {
		last := len(r.idle[c]) - 1
		no := r.idle[c][last]
		r.idle[c] = r.idle[c][:last]
		if base := r.slots[no-1].ptr.Value(); base != nil {
			return unsafe.Slice(base, frameSizes[c])[:n], no
		}
		r.vacateLocked(no)
	}
	return nil, 0
}

// registerLocked numbers the frame f, new to the registry, and makes its weak
// pointer. It returns 0, leaving f an ordinary allocation, if no number is
// free.
func (r *frameRegistry) registerLocked(f []byte) frameNo {
	no := r.numberLocked()
	if no != 0 {
		r.slots[no-1] = frameSlot{ptr: weak.Make(unsafe.SliceData(f))}
		r.classes[no-1] = uint8(frameClass(len(f)))
	}
	return no
}

// numberLocked returns a number for a new frame, or 0 if none is free.
func (r *frameRegistry) numberLocked() frameNo {
	if len(r.vacant) == 0 && len(r.slots) == maxFrames {
		r.sweepLocked()
	}
	if last := len(r.vacant) - 1; last >= 0 {
		no := r.vacant[last]
		r.vacant = r.vacant[:last]
		return no
	}
	if len(r.slots) == maxFrames {
		return 0
	}
	r.slots = append(r.slots, frameSlot{})
	r.classes = append(r.classes, 0)
	return frameNo(len(r.slots))
}

// vacateLocked frees number no for a new frame.
func (r *frameRegistry) vacateLocked(no frameNo) {
	r.slots[no-1] = frameSlot{}
	r.vacant = append(r.vacant, no)
}

// sweepLocked vacates the number of every frame the collector reclaimed:
// idle frames, and frames that went with decoded packets nobody released. It
// runs only once per collection.
func (r *frameRegistry) sweepLocked() {
	gc := [1]metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc[:])
	cycles := gc[0].Value.Uint64()
	if cycles == r.sweptAt {
		return
	}
	r.sweptAt = cycles
	for i, s := range r.slots {
		if s.ptr != (weak.Pointer[byte]{}) && s.ptr.Value() == nil {
			r.vacateLocked(frameNo(i + 1))
		}
	}
	for c, idle := range r.idle {
		kept := idle[:0]
		for _, no := range idle {
			if r.slots[no-1].ptr != (weak.Pointer[byte]{}) {
				kept = append(kept, no)
			}
		}
		r.idle[c] = kept
	}
}
