package testground

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func startSync(t *testing.T) *Sync {
	t.Helper()
	s := NewSync()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSyncParams(t *testing.T) {
	s := startSync(t)
	c := NewClient(s.Addr()) // host:port form grows a scheme

	if _, ok, err := c.Param("addr"); ok || err != nil {
		t.Fatalf("unpublished param: ok=%v err=%v", ok, err)
	}
	if err := c.SetParam("addr", "127.0.0.1:7601"); err != nil {
		t.Fatalf("SetParam: %v", err)
	}
	v, ok, err := c.Param("addr")
	if err != nil || !ok || v != "127.0.0.1:7601" {
		t.Fatalf("Param: %q %v %v", v, ok, err)
	}
	// In-process mirror sees HTTP-published values and vice versa.
	if v, _ := s.Param("addr"); v != "127.0.0.1:7601" {
		t.Fatalf("in-process Param: %q", v)
	}
	s.SetParam("other", "x")
	if v, err := c.WaitParam("other", time.Second); err != nil || v != "x" {
		t.Fatalf("WaitParam: %q %v", v, err)
	}
}

func TestSyncWaitParamTimesOut(t *testing.T) {
	s := startSync(t)
	c := NewClient(s.URL())
	if _, err := c.WaitParam("never", 300*time.Millisecond); err == nil {
		t.Fatal("WaitParam on an unpublished param must time out")
	}
}

// TestSyncBarrier: N HTTP arrivals release together; none returns
// before the last one arrives.
func TestSyncBarrier(t *testing.T) {
	s := startSync(t)
	s.Define(BarrierAgentsReady, 3)
	c := NewClient(s.URL())

	var mu sync.Mutex
	released := 0
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Arrive(BarrierAgentsReady, 5*time.Second); err != nil {
				t.Errorf("Arrive: %v", err)
			}
			mu.Lock()
			released++
			mu.Unlock()
		}()
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	if released != 0 {
		t.Fatalf("%d arrivals released before the barrier filled", released)
	}
	mu.Unlock()
	if err := c.Arrive(BarrierAgentsReady, 5*time.Second); err != nil {
		t.Fatalf("final Arrive: %v", err)
	}
	wg.Wait()
	// Late arrival at a released barrier passes straight through.
	if err := c.Arrive(BarrierAgentsReady, time.Second); err != nil {
		t.Fatalf("late Arrive: %v", err)
	}
	// The runner observes the release without arriving.
	if err := s.WaitReleased(BarrierAgentsReady, time.Second); err != nil {
		t.Fatalf("WaitReleased: %v", err)
	}
}

// TestSyncBarrierStatusAndTimeout: the HTTP statuses of the barrier
// endpoint — an undefined barrier is a 404, a bad timeout_s a 400, and a
// lone arrival times out.
func TestSyncBarrierStatusAndTimeout(t *testing.T) {
	s := startSync(t)
	s.Define("b", 2)
	c := NewClient(s.URL())
	if err := c.Arrive("nobody-defined", time.Second); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("arrive at an undefined barrier = %v, want a 404", err)
	}
	resp, err := http.Post(s.URL()+"/barrier/b?timeout_s=-1", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout_s=-1: status %s, want 400", resp.Status)
	}
	if err := c.Arrive("b", 300*time.Millisecond); err == nil {
		t.Fatal("lone arrival must time out")
	}
}
