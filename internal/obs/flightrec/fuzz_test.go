package flightrec

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// FuzzReadRecording feeds arbitrary bytes, plain or gzip, to the record
// file reader: it may reject them, but must not panic, and whatever it
// accepts must Write and read back to an equal Recording. JSON cannot
// tell an empty list from an absent one, and a NaN SLO value equals no
// value, so equal means the same meta fields, the same numbers of records,
// slots and SLO statuses, and the same serialized form (Write is
// deterministic: encoding/json sorts map keys).
func FuzzReadRecording(f *testing.F) {
	nan := sampleRecording()
	nan.SLO[0].Value = math.NaN()
	for _, rec := range []*Recording{sampleRecording(), nan, {}} {
		var plain, zipped bytes.Buffer
		gz := gzip.NewWriter(&zipped)
		if err := rec.Write(&plain); err != nil {
			f.Fatal(err)
		}
		if err := rec.Write(gz); err != nil {
			f.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(plain.Bytes())
		f.Add(zipped.Bytes())
	}
	f.Add([]byte(`{"slo":[]}` + "\n" + `{"slot":{"inter_links":[],"cell_sats":{}}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := ReadRecording(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := rec.Write(&first); err != nil {
			t.Fatalf("an accepted recording does not Write: %v", err)
		}
		again, err := ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a written recording does not read back: %v\n%s", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatalf("a re-read recording does not Write: %v", err)
		}
		if again.Proc != rec.Proc || again.EpochUS != rec.EpochUS || again.Dropped != rec.Dropped ||
			len(again.Records) != len(rec.Records) || len(again.Slots) != len(rec.Slots) || len(again.SLO) != len(rec.SLO) ||
			!bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write → read changed the recording:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
