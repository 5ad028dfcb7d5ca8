package testground

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

// watchedProc is a proc with a log file and a line watcher but no process
// behind it: the test writes its output and closes done itself.
func watchedProc(t *testing.T) *proc {
	t.Helper()
	log, err := os.Create(filepath.Join(t.TempDir(), "ctl.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return &proc{name: "ctl", done: make(chan struct{}), log: log, watch: newLineWatch()}
}

func write(t *testing.T, p *proc, chunks ...string) {
	t.Helper()
	for _, c := range chunks {
		if n, err := p.watch.Write([]byte(c)); n != len(c) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", c, n, err)
		}
	}
}

func TestLineWatchLineSplitAcrossWrites(t *testing.T) {
	p := watchedProc(t)
	line := fmt.Sprintf(cli.AnnounceController, "127.0.0.1:40123", 3)
	write(t, p, line[:7], line[7:30])
	select {
	case <-p.watch.found[1]:
		t.Fatal("an unterminated line matched")
	default:
	}
	write(t, p, line[30:])
	if got, err := p.await(cli.AnnounceController, time.Second); err != nil || got != "127.0.0.1:40123" {
		t.Fatalf("await = %q, %v", got, err)
	}
}

func TestLineWatchTwoLinesInOneWrite(t *testing.T) {
	p := watchedProc(t)
	write(t, p, "recording: on\n"+
		fmt.Sprintf(cli.AnnounceTelemetry, "127.0.0.1:9100")+
		"tinyleo-ctl: southbound: only 2/3 agents after 30s\n"+
		fmt.Sprintf(cli.AnnounceRegistered, 3))
	if got, err := p.await(cli.AnnounceTelemetry, time.Second); err != nil || got != "127.0.0.1:9100" {
		t.Fatalf("telemetry = %q, %v", got, err)
	}
	if got, err := p.await(cli.AnnounceRegistered, time.Second); err != nil || got != "3" {
		t.Fatalf("registered = %q, %v", got, err)
	}
	// A later line of the same shape does not replace the first.
	write(t, p, fmt.Sprintf(cli.AnnounceTelemetry, "127.0.0.1:9200"))
	if got, _ := p.await(cli.AnnounceTelemetry, time.Second); got != "127.0.0.1:9100" {
		t.Errorf("telemetry after a second line = %q", got)
	}
}

func TestLineWatchMissingLineNamesTheLog(t *testing.T) {
	p := watchedProc(t)
	write(t, p, fmt.Sprintf(cli.AnnounceTelemetry, "127.0.0.1:9100"))
	_, err := p.await(cli.AnnounceRegistered, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), p.log.Name()) || !strings.Contains(err.Error(), "within") {
		t.Fatalf("timeout error = %v, want one naming %s", err, p.log.Name())
	}
	close(p.done)
	_, err = p.await(cli.AnnounceController, time.Minute)
	if err == nil || !strings.Contains(err.Error(), p.log.Name()) || !strings.Contains(err.Error(), "exited") {
		t.Fatalf("exit error = %v, want one naming %s", err, p.log.Name())
	}
	// A line printed on the way out still counts.
	if got, err := p.await(cli.AnnounceTelemetry, time.Minute); err != nil || got != "127.0.0.1:9100" {
		t.Fatalf("await after exit = %q, %v", got, err)
	}
}
