package flightrec

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Recording is one loaded record file: a process's tracer dump (what
// obs.Tracer.WriteJSONL, the /trace endpoint and bench/ write) or a full
// flight recording, which is the same dump followed by slot snapshots and
// the final SLO status.
type Recording struct {
	// Proc names the process ("" if the meta record carried no name).
	Proc string
	// EpochUS is the tracer epoch — the zero of every record's StartUS —
	// in Unix microseconds.
	EpochUS int64
	// Dropped counts records the ring overwrote before the dump.
	Dropped int64
	// Records are the spans and instant events, in ring (commit) order.
	Records []obs.Event
	// Slots are the slot snapshots oldest-first; SLO the final statuses.
	Slots []SlotState
	SLO   []RuleStatus
}

// Events returns the recording's instant events, oldest-first.
func (rec *Recording) Events() []obs.Event { return instants(rec.Records) }

// line is one line of the record file. It is a JSON object holding exactly
// one of:
//
//   - a record: obs.Event's keys inline — name, start_us, dur_us, seq, and
//     for a span trace/span/parent, for an instant event "instant":true;
//     the first line is the meta record, named obs.MetaEventName, whose
//     attrs carry proc, epoch_unix_us and dropped;
//   - "slot": one SlotState;
//   - "slo": the final []RuleStatus.
//
// A tracer dump has only record lines, so it is a recording with no slots.
type line struct {
	*obs.Event
	Slot *SlotState   `json:"slot,omitempty"`
	SLO  []RuleStatus `json:"slo,omitempty"`
}

// Write serializes the recording as JSONL: the meta line, the records,
// the slots oldest-first, and a final SLO status line.
func (rec *Recording) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	meta := obs.MetaEvent(rec.Proc, rec.EpochUS, rec.Dropped)
	if err := enc.Encode(line{Event: &meta}); err != nil {
		return err
	}
	for i := range rec.Records {
		if err := enc.Encode(line{Event: &rec.Records[i]}); err != nil {
			return err
		}
	}
	for i := range rec.Slots {
		if err := enc.Encode(line{Slot: &rec.Slots[i]}); err != nil {
			return err
		}
	}
	if len(rec.SLO) > 0 {
		return enc.Encode(line{SLO: rec.SLO})
	}
	return nil
}

// ReadRecording parses a record stream — a tracer dump or a flight
// recording, plain or gzip (sniffed by magic bytes, not file name), lines
// of any length. The meta record is accepted anywhere; a stream without
// one reads as epoch 0 with an empty process name.
func ReadRecording(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("flightrec: gzip: %w", err)
		}
		defer gz.Close()
		br = bufio.NewReader(gz)
	}
	rec := &Recording{}
	for n := 1; ; n++ {
		text, err := br.ReadBytes('\n')
		if text = bytes.TrimSpace(text); len(text) > 0 {
			var ln line
			if jerr := json.Unmarshal(text, &ln); jerr != nil {
				return nil, fmt.Errorf("flightrec: line %d: %w", n, jerr)
			}
			switch {
			case ln.Slot != nil:
				rec.Slots = append(rec.Slots, *ln.Slot)
			case ln.SLO != nil:
				rec.SLO = ln.SLO
			case ln.Event == nil:
				// Not a line this reader knows: skipped.
			case ln.Name == obs.MetaEventName:
				rec.Proc = ln.Attrs["proc"]
				rec.EpochUS, _ = strconv.ParseInt(ln.Attrs["epoch_unix_us"], 10, 64)
				rec.Dropped, _ = strconv.ParseInt(ln.Attrs["dropped"], 10, 64)
			default:
				rec.Records = append(rec.Records, *ln.Event)
			}
		}
		if err == io.EOF {
			return rec, nil
		}
		if err != nil {
			return nil, fmt.Errorf("flightrec: line %d: %w", n, err)
		}
	}
}

// ReadRecordingFile loads a recording from path. One with an empty Proc
// is named after the file, so merged views stay distinguishable.
func ReadRecordingFile(path string) (*Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := ReadRecording(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Proc == "" {
		rec.Proc = strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".gz"), ".jsonl")
	}
	return rec, nil
}

// SaveRecording writes the process-wide recorder state — the process
// tracer's ring, the slot snapshots, a final SLO evaluation — to path as
// JSONL (gzip-compressed when the name ends in .gz). It is the
// -record-out flush and returns a one-line summary for the CLI.
func SaveRecording(path string) (string, error) {
	tr := obs.Trace()
	rec := &Recording{
		Proc:    tr.Process(),
		EpochUS: tr.EpochUnixMicros(),
		Slots:   defaultSnapshotter.Slots(),
	}
	if eng := DefaultSLOEngine(); eng != nil {
		rec.SLO = eng.Eval()
	}
	// After Eval, so that a breach it finds is in the file.
	rec.Records, rec.Dropped = tr.Events(), tr.Dropped()
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	werr := rec.Write(w)
	if gz != nil {
		if cerr := gz.Close(); werr == nil {
			werr = cerr
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	events := len(rec.Events())
	return fmt.Sprintf("%d slots, %d events, %d spans (%d records overwritten), %d SLO rules",
		len(rec.Slots), events, len(rec.Records)-events, rec.Dropped, len(rec.SLO)), nil
}
