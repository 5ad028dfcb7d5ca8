package dataplane

import "testing"

func BenchmarkPacketEncode(b *testing.B) {
	p, err := NewGeoPacket(42, []int{100, 200, 300, 400, 500}, 7, 1, make([]byte, 256))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketDecode(b *testing.B) {
	p, _ := NewGeoPacket(42, []int{100, 200, 300, 400, 500}, 7, 1, make([]byte, 256))
	wire, _ := p.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// rewind puts a delivered packet back as NewGeoPacket made it, keeping the
// storage of its hop trace, so that a loop forwards without constructing.
func rewind(p *Packet) {
	p.Base.HopLimit = 64
	p.Geo().SegmentsLeft = uint8(len(p.Geo().Segments()))
	p.HopTrace = p.HopTrace[:0]
}

// builtPacket keeps the construct benchmark's result live.
var builtPacket *Packet

func BenchmarkGeoForwarding(b *testing.B) {
	// What one packet costs, in its two parts: building it, and forwarding it
	// over chainNet's three hops (0 → 2 → 4: two ISLs, then delivery).
	b.Run("construct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if builtPacket, err = NewGeoPacket(99, []int{20, 30}, 1, uint32(i), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hops", func(b *testing.B) {
		n := chainNet()
		delivered := 0
		n.OnDeliver = func(s *Satellite, p *Packet) { delivered++ }
		p, err := NewGeoPacket(99, []int{20, 30}, 1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rewind(p)
			n.Inject(0, p)
			n.Sim.Run(n.Sim.Now() + 1)
		}
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	})
	// The ledger's ingress past Encode: decode a terminal's bytes, then the
	// same three hops; the network recycles the delivered packet.
	b.Run("ingress", func(b *testing.B) {
		n := chainNet()
		delivered := 0
		n.OnDeliver = func(s *Satellite, p *Packet) { delivered++ }
		p, err := NewGeoPacket(99, []int{20, 30}, 1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		wire, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q, err := Decode(wire)
			if err != nil {
				b.Fatal(err)
			}
			n.Inject(0, q)
			n.Sim.Run(n.Sim.Now() + 1)
		}
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	})
	// The ledger's whole per-packet path, its payloads alternating 0 and
	// 1,200 B as forward-mix's do: build the packet, encode it at the
	// terminal, decode it at the gateway, then the same three hops; the
	// network hands the frame back at delivery for the next Encode.
	b.Run("terminal", func(b *testing.B) {
		n := chainNet()
		delivered := 0
		n.OnDeliver = func(s *Satellite, p *Packet) { delivered++ }
		large := make([]byte, 1200)
		route := []int{20, 30}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var payload []byte
			if i%2 == 1 {
				payload = large
			}
			p, err := NewGeoPacket(99, route, 1, uint32(i), payload)
			if err != nil {
				b.Fatal(err)
			}
			wire, err := p.Encode()
			if err != nil {
				b.Fatal(err)
			}
			q, err := Decode(wire)
			if err != nil {
				b.Fatal(err)
			}
			n.Inject(0, q)
			n.Sim.Run(n.Sim.Now() + 1)
		}
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	})
}
