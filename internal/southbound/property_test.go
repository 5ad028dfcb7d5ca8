package southbound

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestPropertyMessageRoundTrip: any well-formed message survives the wire.
func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, sat, seq, peer uint32, nPayload uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Message{
			Type:  MsgType(typ%7 + 1),
			SatID: sat, Seq: seq, Peer: peer,
		}
		if n := int(nPayload) % 64; n > 0 {
			m.Payload = make([]byte, n)
			rng.Read(m.Payload)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReaderNeverPanics: arbitrary bytes must never panic the
// frame reader (it may error).
func TestPropertyReaderNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ReadMessage(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFrameStreamResync: consecutive messages on one stream decode
// in order with nothing left over.
func TestPropertyFrameStreamResync(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%10 + 1
		var buf bytes.Buffer
		var msgs []*Message
		for i := 0; i < n; i++ {
			m := &Message{
				Type:  MsgType(rng.Intn(7) + 1),
				SatID: rng.Uint32(), Seq: rng.Uint32(), Peer: rng.Uint32(),
			}
			if rng.Intn(3) == 0 {
				m.Payload = []byte{byte(rng.Intn(256))}
			}
			msgs = append(msgs, m)
			if err := WriteMessage(&buf, m); err != nil {
				return false
			}
		}
		for _, want := range msgs {
			got, err := ReadMessage(&buf)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return buf.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
