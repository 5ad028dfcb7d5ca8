package flightrec

// Coverage for the /trace?since=<seq> incremental cursor and the
// EventsSince primitive behind it, on the tracer ring the recorder's
// events ride.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/obs"
)

func TestEventsSince(t *testing.T) {
	var l obs.Tracer
	l.Enable(8)
	for i := 1; i <= 5; i++ {
		l.Emit(EventName(CompChaos, "e"+strconv.Itoa(i)))
	}
	cases := []struct {
		since     uint64
		wantFirst uint64
		wantLen   int
	}{
		{0, 1, 5},
		{2, 3, 3},
		{4, 5, 1},
		{5, 0, 0},
		{99, 0, 0},
	}
	for _, c := range cases {
		got := l.EventsSince(c.since)
		if len(got) != c.wantLen {
			t.Errorf("EventsSince(%d) = %d events, want %d", c.since, len(got), c.wantLen)
			continue
		}
		if c.wantLen > 0 && got[0].Seq != c.wantFirst {
			t.Errorf("EventsSince(%d)[0].Seq = %d, want %d", c.since, got[0].Seq, c.wantFirst)
		}
	}
}

func TestEventsSinceAfterWrap(t *testing.T) {
	var l obs.Tracer
	l.Enable(4)
	for i := 1; i <= 10; i++ { // ring keeps seqs 7..10
		l.Emit(EventName(CompChaos, "e"+strconv.Itoa(i)))
	}
	got := l.EventsSince(5)
	if len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("EventsSince(5) after wrap = %d events (first seq %d), want 4 from seq 7",
			len(got), got[0].Seq)
	}
	if got := l.EventsSince(8); len(got) != 2 || got[0].Seq != 9 {
		t.Fatalf("EventsSince(8) after wrap = %+v, want seqs 9,10", got)
	}
}

// readEventSeqs fetches a /trace body with the one reader and returns the
// sequence numbers of its instant events.
func readEventSeqs(t *testing.T, url string) []uint64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	rec, err := ReadRecording(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if rec.EpochUS == 0 {
		t.Fatalf("GET %s: body has no meta record", url)
	}
	var seqs []uint64
	for _, ev := range rec.Events() {
		seqs = append(seqs, ev.Seq)
	}
	return seqs
}

func TestEventsEndpointSinceCursor(t *testing.T) {
	Enable(Options{})
	defer Disable()
	defer obs.Trace().Disable()
	for i := 1; i <= 6; i++ {
		Emit(CompFleet, "tick", "i", strconv.Itoa(i))
		obs.StartSpan("sb.send").End() // spans interleave and advance the cursor too
	}
	srv := httptest.NewServer(obs.NewHandler(obs.NewRegistry(false)))
	defer srv.Close()

	all := readEventSeqs(t, srv.URL+"/trace")
	if len(all) != 6 {
		t.Fatalf("/trace returned %d events, want 6", len(all))
	}
	// Incremental poll from the middle.
	tail := readEventSeqs(t, srv.URL+"/trace?since="+strconv.FormatUint(all[3], 10))
	if len(tail) != 2 || tail[0] != all[4] || all[4] != all[3]+2 {
		t.Fatalf("/trace?since=%d = %v, want %v", all[3], tail, all[4:])
	}
	// Cursor at the newest event: empty body, still 200.
	if got := readEventSeqs(t, srv.URL+"/trace?since="+strconv.FormatUint(all[5], 10)); len(got) != 0 {
		t.Fatalf("/trace at head returned %v, want none", got)
	}
	// Malformed cursor: 400.
	resp, err := http.Get(srv.URL + "/trace?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", resp.StatusCode)
	}
}
