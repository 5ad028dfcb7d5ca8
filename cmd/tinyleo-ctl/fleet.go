package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
)

// writeMetricsFile writes the registries' /metrics.json document to path:
// the -metrics-out file.
func writeMetricsFile(path string, regs ...*obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSON(f, regs...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fetchSamples GETs a controller's /metrics.json document.
func fetchSamples(addr string) ([]obs.Sample, error) {
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	doc, err := obs.DecodeDoc(body)
	if err != nil {
		return nil, err
	}
	return doc.Series, nil
}

// fetchEventsSince tails the controller's record ring incrementally via
// the /trace?since=<seq> cursor: it returns the instant events newer than
// since, and the newest sequence number seen (spans advance it too).
func fetchEventsSince(addr string, since uint64) ([]obs.Event, uint64, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/trace?since=%d", addr, since))
	if err != nil {
		return nil, since, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, since, fmt.Errorf("GET /trace: %s", resp.Status)
	}
	rec, err := flightrec.ReadRecording(resp.Body)
	if err != nil {
		return nil, since, err
	}
	if n := len(rec.Records); n > 0 {
		since = rec.Records[n-1].Seq
	}
	return rec.Events(), since, nil
}

// runTop implements `tinyleo-ctl top`: a live refreshing terminal view of
// per-agent health rows plus fleet aggregates, polling /metrics.json and
// tailing /trace?since= incrementally.
func runTop(args []string) {
	fs := flag.NewFlagSet("tinyleo-ctl top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9100", "controller telemetry address (the -metrics-addr of a running tinyleo-ctl)")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	maxSeries := fs.Int("max-series", 16, "fleet total series to show before eliding")
	maxEvents := fs.Int("max-events", 8, "recent fleet events to keep on screen")
	once := fs.Bool("once", false, "print a single frame and exit (no screen clearing)")
	fs.Parse(args)
	if *interval <= 0 || *maxEvents < 0 || *maxSeries < 0 {
		fmt.Fprintln(os.Stderr, "tinyleo-ctl top: -interval must be positive, -max-events and -max-series not negative")
		fs.Usage()
		os.Exit(2)
	}

	var lastEventSeq uint64
	var recent []obs.Event
	frame := func() error {
		samples, err := fetchSamples(*addr)
		if err != nil {
			return err
		}
		// Event tailing is best-effort: southbound events are recorded only
		// when the controller runs with the flight recorder on.
		if events, seq, err := fetchEventsSince(*addr, lastEventSeq); err == nil {
			lastEventSeq = seq
			for _, ev := range events {
				if comp, _ := flightrec.SplitEventName(ev.Name); comp == flightrec.CompFleet || comp == flightrec.CompSouthbound {
					recent = append(recent, ev)
				}
			}
			if len(recent) > *maxEvents {
				recent = recent[len(recent)-*maxEvents:]
			}
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		renderTop(os.Stdout, *addr, samples, recent, *maxSeries)
		return nil
	}
	if err := frame(); err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl top: %v\n", err)
		os.Exit(1)
	}
	if *once {
		return
	}
	for range time.Tick(*interval) {
		if err := frame(); err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl top: %v\n", err)
		}
	}
}

// agentRow is one agent's line in a `tinyleo-ctl top` frame.
type agentRow struct {
	id                            int
	state                         fleet.State
	reports, bytes, gaps, silence float64
	series                        int
}

// agentRows groups the agent-labeled series of a rollup document by
// agent, in ID order. Series counts the agent's own series, not the
// aggregator's tinyleo_fleet_* rows about it.
func agentRows(samples []obs.Sample) []*agentRow {
	byID := map[int]*agentRow{}
	var rows []*agentRow
	for i := range samples {
		s := &samples[i]
		id, err := strconv.Atoi(s.Labels["agent"])
		if err != nil {
			continue
		}
		r := byID[id]
		if r == nil {
			r = &agentRow{id: id}
			byID[id] = r
			rows = append(rows, r)
		}
		switch s.Name {
		case fleet.MetricAgentState:
			r.state = fleet.State(s.Value)
		case fleet.MetricReports:
			r.reports = s.Value
		case fleet.MetricReportBytes:
			r.bytes = s.Value
		case fleet.MetricGaps:
			r.gaps = s.Value
		case fleet.MetricAgentSilence:
			r.silence = s.Value
		default:
			r.series++
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	return rows
}

// renderTop writes one `tinyleo-ctl top` frame from the controller's
// /metrics.json document: a fleet summary line, per-agent health rows,
// the top fleet aggregates, and recent events.
func renderTop(w io.Writer, addr string, samples []obs.Sample, events []obs.Event, maxSeries int) {
	sum := fleet.Summarize(samples)
	states := make([]string, 0, len(sum.States))
	for s := range sum.States {
		states = append(states, s)
	}
	sort.Strings(states)
	var sb strings.Builder
	for _, s := range states {
		fmt.Fprintf(&sb, " %d %s", sum.States[s], s)
	}
	fmt.Fprintf(w, "tinyleo fleet @ %s · %d agents%s · %d decode errors\n\n",
		addr, sum.Agents, sb.String(), sum.DecodeErrors)

	fmt.Fprintf(w, "%6s  %-8s %8s %10s %5s %9s %7s\n",
		"AGENT", "STATE", "REPORTS", "BYTES", "GAPS", "SILENCE", "SERIES")
	for _, a := range agentRows(samples) {
		fmt.Fprintf(w, "%6d  %-8s %8.0f %10s %5.0f %8.1fs %7d\n",
			a.id, a.state, a.reports, sizeOf(uint64(a.bytes)), a.gaps, a.silence, a.series)
	}

	var perAgent []obs.Sample
	for _, s := range samples {
		if _, ok := s.Labels["agent"]; ok {
			perAgent = append(perAgent, s)
		}
	}
	totals := fleet.Totals(perAgent)
	fmt.Fprintf(w, "\nfleet totals (top %d of %d series)\n", min(maxSeries, len(totals)), len(totals))
	shown := 0
	for _, s := range totals {
		if shown >= maxSeries {
			fmt.Fprintf(w, "  ... %d more\n", len(totals)-shown)
			break
		}
		shown++
		switch s.Kind {
		case obs.KindHistogram:
			mean := 0.0
			if s.Count > 0 {
				mean = s.Sum / float64(s.Count)
			}
			fmt.Fprintf(w, "  %-58s count=%d mean=%.4g\n", seriesLabel(&s), s.Count, mean)
		default:
			fmt.Fprintf(w, "  %-58s %g\n", seriesLabel(&s), s.Value)
		}
	}

	if len(events) > 0 {
		fmt.Fprintf(w, "\nrecent events\n")
		for _, ev := range events {
			fmt.Fprintf(w, "  +%9.3fs %-28s %s\n",
				float64(ev.StartUS)/1e6, ev.Name, obs.AttrString(ev.Attrs))
		}
	}
}

// seriesLabel renders name{k=v,...} for a totals row.
func seriesLabel(s *obs.Sample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// sizeOf renders a byte count compactly (999, 1.2K, 3.4M).
func sizeOf(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1000:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d", n)
}
