package fleet_test

// End-to-end fleet telemetry: three real tinyleo-sat processes stream the
// changed rows of their registries over real TCP into an in-test
// controller+aggregator. The rollup must converge to EXACT equality with
// the satellites' own /metrics.json documents, killing one process must
// end with it silent, the matching flight events recorded, and the
// survivors untouched, and the controller's metrics document must read
// back into the same accounting the test kept of every report. (The healthy → lagging → silent ladder itself is
// checked on a virtual clock by TestAggregatorStalenessTransitions and
// chaos's TestCampaignCrashDrivesAgentSilent.)

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/southbound"
)

// satProc is one launched tinyleo-sat process.
type satProc struct {
	id      uint32
	cmd     *exec.Cmd
	metrics string // host:port of its telemetry surface
}

// startSat launches one tinyleo-sat and waits for its telemetry address.
func startSat(t *testing.T, bin, ctlAddr string, id uint32) *satProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-controller", ctlAddr,
		"-id", strconv.FormatUint(uint64(id), 10),
		"-fleet-interval", "50ms",
		"-metrics-addr", "127.0.0.1:0",
		"-run-for", "60s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start sat %d: %v", id, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := cli.Announced(cli.AnnounceTelemetry, sc.Text()); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		return &satProc{id: id, cmd: cmd, metrics: a}
	case <-time.After(20 * time.Second):
		t.Fatalf("sat %d never announced its telemetry address", id)
		return nil
	}
}

// fetchSeries reads a satellite's /metrics.json document.
func fetchSeries(t *testing.T, addr string) []obs.Sample {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeDoc(body)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Series
}

// sumSeries merges samples across satellites the same way the aggregator
// totals do: counters and gauges add, histograms add count/sum/buckets.
func sumSeries(all [][]obs.Sample) map[string]obs.Sample {
	out := map[string]obs.Sample{}
	for _, samples := range all {
		for _, s := range samples {
			key := s.Key()
			cur, ok := out[key]
			if !ok {
				s.Buckets = append([]int64(nil), s.Buckets...)
				out[key] = s
				continue
			}
			cur.Value += s.Value
			cur.Count += s.Count
			cur.Sum += s.Sum
			for i, b := range s.Buckets {
				if i < len(cur.Buckets) {
					cur.Buckets[i] += b
				}
			}
			out[key] = cur
		}
	}
	return out
}

// rollupMatches compares the aggregator's fleet totals against the
// ground-truth sums, exactly. Meta series the satellites don't export
// (tinyleo_fleet_*) are skipped.
func rollupMatches(agg *fleet.Aggregator, want map[string]obs.Sample) (bool, string) {
	got := 0
	for _, s := range fleet.Totals(obs.Snapshot(agg.Registry())) {
		if strings.HasPrefix(s.Name, "tinyleo_fleet_") {
			continue
		}
		got++
		w, ok := want[s.Key()]
		if !ok {
			return false, fmt.Sprintf("rollup has unexpected series %s", s.Key())
		}
		if s.Value != w.Value || s.Count != w.Count || s.Sum != w.Sum {
			return false, fmt.Sprintf("series %s: rollup value=%v count=%d sum=%v, want value=%v count=%d sum=%v",
				s.Key(), s.Value, s.Count, s.Sum, w.Value, w.Count, w.Sum)
		}
		for i, b := range s.Buckets {
			if i >= len(w.Buckets) || w.Buckets[i] != b {
				return false, fmt.Sprintf("series %s: bucket %d mismatch", s.Key(), i)
			}
		}
	}
	if got != len(want) {
		return false, fmt.Sprintf("rollup has %d series, ground truth has %d", got, len(want))
	}
	return true, ""
}

func TestFleetEndToEndThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real tinyleo-sat processes")
	}
	bin := filepath.Join(t.TempDir(), "tinyleo-sat")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/tinyleo-sat")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build tinyleo-sat: %v\n%s", err, out)
	}

	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	var log obs.Tracer
	log.Enable(256)
	var mu sync.Mutex
	transitions := map[uint32][]fleet.State{}
	// Forty report intervals of silence before lagging: a survivor on a
	// loaded 2-vCPU machine does not stall that long, the victim is dead
	// for good.
	agg := fleet.NewAggregator(fleet.Options{
		LagAfter:    2 * time.Second,
		SilentAfter: 3 * time.Second,
		Tracer:      &log,
		OnTransition: func(agent uint32, from, to fleet.State) {
			mu.Lock()
			transitions[agent] = append(transitions[agent], to)
			mu.Unlock()
		},
	})
	// The test's own accounting of every report it hands the aggregator,
	// updated under the same lock as the hand-off.
	type account struct{ seq, reports, bytes, gaps uint64 }
	var acctMu sync.Mutex
	accounts := map[uint32]*account{}
	var decodeErrs int64
	ctl.OnTelemetry = func(sat uint32, payload []byte) {
		acctMu.Lock()
		defer acctMu.Unlock()
		if err := agg.HandleReport(sat, payload); err != nil {
			decodeErrs++
			t.Errorf("telemetry from sat %d: %v", sat, err)
			return
		}
		doc, _ := obs.DecodeDoc(payload)
		a := accounts[sat]
		if a == nil {
			a = &account{}
			accounts[sat] = a
		}
		if doc.Seq != a.seq {
			if a.seq != 0 && doc.Seq > a.seq+1 {
				a.gaps += doc.Seq - a.seq - 1
			}
			a.seq = doc.Seq
			a.reports++
			a.bytes += uint64(len(payload))
		}
	}
	stopTick, tickDone := make(chan struct{}), make(chan struct{})
	stopTicking := sync.OnceFunc(func() { close(stopTick); <-tickDone })
	defer stopTicking()
	go func() {
		defer close(tickDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-tick.C:
				agg.Tick()
			}
		}
	}()

	sats := make([]*satProc, 0, 3)
	for id := uint32(1); id <= 3; id++ {
		sats = append(sats, startSat(t, bin, ctl.Addr(), id))
	}

	// Convergence: the controller-side rollup must become EXACTLY the sum
	// of the three satellites' own registries. The registries are static
	// between commands (and no commands are sent), so once every agent's
	// baseline lands the equality is stable.
	deadline := time.Now().Add(20 * time.Second)
	var lastWhy string
	for {
		all := make([][]obs.Sample, 0, len(sats))
		for _, s := range sats {
			all = append(all, fetchSeries(t, s.metrics))
		}
		ok, why := rollupMatches(agg, sumSeries(all))
		if ok {
			break
		}
		lastWhy = why
		if time.Now().After(deadline) {
			t.Fatalf("rollup never converged to the per-sat registry sums: %s", lastWhy)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if sum := summary(agg); sum.Agents != 3 || sum.States["healthy"] != 3 || sum.Reports < 3 {
		t.Fatalf("converged fleet before any fault: %+v", sum)
	}
	for _, s := range sats {
		if agg.AgentSeq(s.id) == 0 {
			t.Fatalf("agent %d converged without reports", s.id)
		}
	}

	// Kill sat 2 and wait for the transition hook to report it silent. The
	// hook fires after Tick has published the state, so the state row is
	// not the thing to wait on: the record of the hook is.
	victim := sats[1]
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = victim.cmd.Process.Wait()
	var ladder []fleet.State
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		mu.Lock()
		ladder = append(ladder[:0], transitions[victim.id]...)
		others := len(transitions) - 1
		mu.Unlock()
		if others > 0 {
			t.Fatalf("a surviving agent changed state: %v", transitions)
		}
		if n := len(ladder); n > 0 && ladder[n-1] == fleet.StateSilent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed sat %d never went silent: transitions %v, fleet %+v", victim.id, ladder, summary(agg))
		}
	}
	// A tick that ran late may skip lagging; nothing else may appear.
	if n := len(ladder); n > 2 || n == 2 && ladder[0] != fleet.StateLagging {
		t.Fatalf("victim transitions = %v, want [lagging silent] or [silent]", ladder)
	}
	// The flight recorder saw the same ladder as typed events.
	var types []string
	for _, ev := range log.Events() {
		if typ, ok := strings.CutPrefix(ev.Name, "fleet.agent_"); ok && ev.Attrs["agent"] == strconv.FormatUint(uint64(victim.id), 10) {
			types = append(types, typ)
		}
	}
	if fmt.Sprint(types) != fmt.Sprint(ladder) {
		t.Fatalf("flight events for victim = %v, transitions %v", types, ladder)
	}
	if sum := summary(agg); !reflect.DeepEqual(sum.Silent, []int{int(victim.id)}) || sum.States["healthy"] != 2 {
		t.Fatalf("after the kill: %+v, want sat %d alone silent", sum, victim.id)
	}

	t.Run("MetricsOutSummarizesToTheAccounting", func(t *testing.T) {
		// With the ticker stopped every state is settled; under the report
		// lock, what -metrics-out writes (obs.WriteJSON over the controller's
		// registries) must read back into exactly the accounting above.
		stopTicking()
		acctMu.Lock()
		var buf bytes.Buffer
		err := obs.WriteJSON(&buf, obs.Default(), ctl.Metrics(), agg.Registry())
		want := fleet.Summary{States: map[string]int{}, DecodeErrors: decodeErrs}
		mu.Lock()
		for id, a := range accounts {
			if a.seq != agg.AgentSeq(id) {
				t.Errorf("agent %d: aggregator at seq %d, accounting at %d", id, agg.AgentSeq(id), a.seq)
			}
			want.Agents++
			want.Reports += a.reports
			want.Bytes += a.bytes
			want.Gaps += a.gaps
			state := fleet.StateHealthy
			if ladder := transitions[id]; len(ladder) > 0 {
				state = ladder[len(ladder)-1]
			}
			want.States[state.String()]++
			if state == fleet.StateSilent {
				want.Silent = append(want.Silent, int(id))
			}
		}
		mu.Unlock()
		acctMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(want.Silent)
		doc, err := obs.DecodeDoc(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got := fleet.Summarize(doc.Series); !reflect.DeepEqual(got, want) {
			t.Fatalf("metrics document summarizes to %+v, accounting says %+v", got, want)
		}
	})
}

// summary is the aggregator's live fleet accounting.
func summary(agg *fleet.Aggregator) fleet.Summary {
	return fleet.Summarize(obs.Snapshot(agg.Registry()))
}
