package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a minimal module under a temp dir and returns its
// root. The package appends inside a map range and never sorts, so
// maporder produces one finding; its ignore directive suppresses nothing.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/mpc/mpc.go": `package mpc

func Keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Clean() int {
	//lint:tinyleo-ignore nothing on the next line ever fires
	return 1
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// capture runs the CLI with stdout/stderr redirected to files and
// returns (exit code, stdout text).
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "out")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out, out)
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

func TestRunJSONFindings(t *testing.T) {
	dir := writeModule(t)
	jsonPath := filepath.Join(dir, "findings.json")
	code, out := capture(t, []string{"-C", dir, "-json", jsonPath, "./..."})
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings present); output:\n%s", code, out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	// The full suite surfaces both the maporder violation and the stale
	// suppression directive, in machine-readable form.
	if !strings.Contains(s, `"maporder"`) || !strings.Contains(s, `"ignoredirective"`) {
		t.Fatalf("JSON findings missing maporder + ignoredirective entries:\n%s", s)
	}
	if !strings.Contains(s, `"line"`) || !strings.Contains(s, `"col"`) {
		t.Fatalf("JSON findings missing position fields:\n%s", s)
	}
}

func TestRunJSONEmptyOnSubset(t *testing.T) {
	dir := writeModule(t)
	jsonPath := filepath.Join(dir, "findings.json")
	// lockorder alone finds nothing here, and a subset run must not
	// report the ignore directive as stale.
	code, out := capture(t, []string{"-C", dir, "-analyzers", "lockorder", "-json", jsonPath, "./..."})
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "[]" {
		t.Fatalf("clean run JSON = %q, want []", got)
	}
}

func TestListNamesSuite(t *testing.T) {
	code, out := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, a := range suite {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
	if len(suite) != 4 {
		t.Errorf("suite has %d analyzers, want 4", len(suite))
	}
}

// A name listed twice runs once: every finding prints once, and a subset
// padded with repeats to the suite's length is still a subset, so its run
// reports no stale directive.
func TestRepeatedAnalyzerNames(t *testing.T) {
	dir := writeModule(t)
	code, out := capture(t, []string{"-C", dir, "-analyzers", "maporder,maporder", "./..."})
	if code != 1 || strings.Count(out, "maporder: append") != 1 {
		t.Fatalf("maporder,maporder: exit %d, want 1 and one maporder finding; output:\n%s", code, out)
	}
	names := strings.TrimSuffix(strings.Repeat("maporder,", len(suite)), ",")
	code, out = capture(t, []string{"-C", dir, "-analyzers", names, "./..."})
	if code != 1 || strings.Contains(out, "ignoredirective") || strings.Count(out, "maporder: append") != 1 {
		t.Fatalf("-analyzers %s: exit %d, want 1, one maporder finding and no stale directive; output:\n%s",
			names, code, out)
	}
}
