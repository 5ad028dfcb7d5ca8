package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
)

// writeFleetSnapshot dumps the aggregator's /fleet view as indented JSON
// — the per-run artifact `tinyleo-ctl fleet snapshot` also produces from
// a live controller.
func writeFleetSnapshot(path string, agg *fleet.Aggregator) error {
	return agg.WriteSnapshotFile(path)
}

// fetchFleet GETs the /fleet document from a controller telemetry
// address.
func fetchFleet(addr string) (*fleet.View, error) {
	resp, err := http.Get("http://" + addr + "/fleet")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /fleet: %s", resp.Status)
	}
	var v fleet.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
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

// runFleet implements `tinyleo-ctl fleet snapshot`: fetch the live /fleet
// document and write it as a per-run artifact.
func runFleet(args []string) {
	if len(args) == 0 || args[0] != "snapshot" {
		fmt.Fprintln(os.Stderr, "usage: tinyleo-ctl fleet snapshot [-addr host:port] [-o fleet.json]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("tinyleo-ctl fleet snapshot", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9100", "controller telemetry address (the -metrics-addr of a running tinyleo-ctl)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args[1:])
	v, err := fetchFleet(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl fleet snapshot: %v\n", err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl fleet snapshot: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl fleet snapshot: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// runTop implements `tinyleo-ctl top`: a live refreshing terminal view of
// per-agent health rows plus fleet aggregates, polling /fleet and tailing
// /trace?since= incrementally.
func runTop(args []string) {
	fs := flag.NewFlagSet("tinyleo-ctl top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9100", "controller telemetry address (the -metrics-addr of a running tinyleo-ctl)")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	maxSeries := fs.Int("max-series", 16, "fleet total series to show before eliding")
	maxEvents := fs.Int("max-events", 8, "recent fleet events to keep on screen")
	once := fs.Bool("once", false, "print a single frame and exit (no screen clearing)")
	fs.Parse(args)

	var lastEventSeq uint64
	var recent []obs.Event
	frame := func() error {
		v, err := fetchFleet(*addr)
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
		renderTop(os.Stdout, *addr, v, recent, *maxSeries)
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

// renderTop writes one `tinyleo-ctl top` frame: a fleet summary line,
// per-agent health rows, the top fleet aggregates, and recent events.
func renderTop(w io.Writer, addr string, v *fleet.View, events []obs.Event, maxSeries int) {
	states := make([]string, 0, len(v.States))
	for s := range v.States {
		states = append(states, s)
	}
	sort.Strings(states)
	var sb strings.Builder
	for _, s := range states {
		fmt.Fprintf(&sb, " %d %s", v.States[s], s)
	}
	fmt.Fprintf(w, "tinyleo fleet @ %s · %d agents%s · %d decode errors\n\n",
		addr, len(v.Agents), sb.String(), v.DecodeErrors)

	fmt.Fprintf(w, "%6s  %-8s %8s %8s %10s %5s %9s %7s\n",
		"AGENT", "STATE", "SEQ", "REPORTS", "BYTES", "GAPS", "SILENCE", "SERIES")
	for _, a := range v.Agents {
		fmt.Fprintf(w, "%6d  %-8s %8d %8d %10s %5d %8.1fs %7d\n",
			a.ID, a.State, a.LastSeq, a.Reports, sizeOf(a.Bytes), a.Gaps,
			float64(a.SilenceMS)/1000, a.Series)
	}

	fmt.Fprintf(w, "\nfleet totals (top %d of %d series)\n", min(maxSeries, len(v.Totals)), len(v.Totals))
	shown := 0
	for _, s := range v.Totals {
		if shown >= maxSeries {
			fmt.Fprintf(w, "  ... %d more\n", len(v.Totals)-shown)
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
