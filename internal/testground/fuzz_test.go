package testground

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the manifest parser, seeded with the
// golden plans: it may reject them, but must not panic, must allocate no
// more than a fixed multiple of the input (plus a constant), and a
// manifest it accepts that passes Validate once defaulted must marshal and
// re-parse to an equal value. JSON cannot tell an empty fault list from an
// absent one, so an empty list counts as none.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed manifests: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Parse(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("Parse of %d bytes allocated %d bytes, more than %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		filled := m.FillDefaults()
		if filled.Validate() != nil {
			return
		}
		buf, err := json.Marshal(filled)
		if err != nil {
			t.Fatalf("a valid manifest does not marshal: %v", err)
		}
		back, err := Parse(buf)
		if err != nil {
			t.Fatalf("a marshalled manifest does not parse: %v\n%s", err, buf)
		}
		if len(filled.Faults) == 0 {
			filled.Faults = nil
		}
		if !reflect.DeepEqual(*back, filled) {
			t.Fatalf("marshal → parse changed the manifest:\n%+v\n%+v\n%s", filled, *back, buf)
		}
	})
}
