package main

import (
	"strings"
	"testing"
)

func names(xs []experiment) string {
	var out []string
	for _, x := range xs {
		out = append(out, x.name)
	}
	return strings.Join(out, ",")
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experimentTable) {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
	// Selection follows the table's order, not the argument's, and
	// tolerates spaces and repeats.
	got, err := selectExperiments("chaos, fig3,table1,fig3")
	if err != nil || names(got) != "table1,fig3,chaos" {
		t.Errorf("selection = %q, err %v", names(got), err)
	}
	if got, err := selectExperiments("fig3,all"); err != nil || len(got) != len(experimentTable) {
		t.Errorf("fig3,all: %d experiments, err %v", len(got), err)
	}

	// Retired sweeps, typos and the empty name must not run silently.
	for _, arg := range []string{"southbound", "delta", "fleet", "nosuch", "fig99,fig3", "fig3,,fig4", ""} {
		got, err := selectExperiments(arg)
		if err == nil {
			t.Errorf("-run %q: selected %q, want an error", arg, names(got))
			continue
		}
		for _, x := range experimentTable {
			if !strings.Contains(err.Error(), x.name) {
				t.Errorf("-run %q: error %q does not list %q", arg, err, x.name)
			}
		}
	}
}

func TestExperimentTableNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, x := range experimentTable {
		if seen[x.name] || x.run == nil {
			t.Errorf("experiment %q: duplicate, reserved or without a runner", x.name)
		}
		seen[x.name] = true
	}
}
