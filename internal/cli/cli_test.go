package cli

import (
	"fmt"
	"strings"
	"testing"
)

// Each announcement reads back the value it was printed with, and a line
// that only resembles one does not match.
func TestAnnounced(t *testing.T) {
	for _, tc := range []struct {
		format, line, want string
	}{
		{AnnounceTelemetry, fmt.Sprintf(AnnounceTelemetry, "127.0.0.1:9100"), "127.0.0.1:9100"},
		{AnnounceController, fmt.Sprintf(AnnounceController, "[::1]:7601", 4), "[::1]:7601"},
		{AnnounceRegistered, fmt.Sprintf(AnnounceRegistered, 12), "12"},
		{AnnounceRegistered, "southbound: only 2/3 agents registered", ""},
		{AnnounceRegistered, " agents registered", ""},
		{AnnounceTelemetry, "telemetry on http://127.0.0.1:9100", ""},
		{AnnounceController, "sat 3 registered with 127.0.0.1:7601", ""},
	} {
		line := strings.TrimSuffix(tc.line, "\n")
		got, ok := Announced(tc.format, line)
		if ok != (tc.want != "") || ok && got != tc.want {
			t.Errorf("Announced(%q, %q) = %q, %v; want %q", tc.format, line, got, ok, tc.want)
		}
	}
}

// Note: Flush is once-per-process, so the ordering and idempotence
// checks share one TestMain-free test to keep the package state simple.
func TestFlushRunsCleanupsInReverseOrderOnce(t *testing.T) {
	var order []int
	AtExit(func() { order = append(order, 1) })
	AtExit(func() { order = append(order, 2) })
	AtExit(func() { order = append(order, 3) })
	Flush()
	if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("cleanup order = %v, want [3 2 1]", order)
	}
	// Second Flush is a no-op, and cleanups registered after a flush
	// never fire (the process is exiting).
	AtExit(func() { order = append(order, 4) })
	Flush()
	if len(order) != 3 {
		t.Fatalf("post-flush cleanups ran: %v", order)
	}
}
