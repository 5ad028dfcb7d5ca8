// Command tinyleo-lint runs TinyLEO's map-order, hot-path, and
// concurrency-contract analyzers over the module and exits nonzero on
// any finding. CI runs it blocking:
//
//	go run ./cmd/tinyleo-lint ./...
//
// Flags:
//
//	-analyzers maporder,lockorder   run a subset (default: all)
//	-list                           print the suite and exit
//	-json findings.json             also write findings as JSON
//
// Patterns use the go tool's "./..." syntax relative to the module root;
// with no patterns, ./... is assumed. Suppress individual findings with
// a "//lint:tinyleo-ignore <reason>" comment on or above the line; when
// the full suite runs, directives that suppress nothing are themselves
// reported (stale suppressions hide future findings).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/guardedby"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/maporder"
)

var suite = []*analysis.Analyzer{
	guardedby.Analyzer,
	hotpathalloc.Analyzer,
	lockorder.Analyzer,
	maporder.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("tinyleo-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	dir := fs.String("C", ".", "module root to analyze")
	jsonOut := fs.String("json", "", "write findings as a deterministic JSON array to this file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(stderr, "tinyleo-lint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: *dir})
	if err != nil {
		fmt.Fprintln(stderr, "tinyleo-lint:", err)
		return 2
	}
	modPath := modulePathOf(pkgs)
	var selected []*analysis.Package
	for _, pkg := range pkgs {
		if analysis.Match(pkg, modPath, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "tinyleo-lint: no packages match %v\n", patterns)
		return 2
	}

	// Stale-suppression detection only makes sense against the full
	// suite: a subset run cannot tell a stale directive from one aimed at
	// an unselected analyzer. selectAnalyzers returns distinct analyzers,
	// so counting them counts the set.
	opts := analysis.RunOptions{ReportStaleIgnores: len(analyzers) == len(suite)}
	findings, err := analysis.RunWithOptions(analyzers, selected, opts)
	if err != nil {
		fmt.Fprintln(stderr, "tinyleo-lint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, findings, stdout); err != nil {
			fmt.Fprintln(stderr, "tinyleo-lint:", err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "tinyleo-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable finding schema: stable field order,
// findings already sorted by position, so output is deterministic for a
// given tree.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON renders findings as an indented JSON array ("[]" when clean)
// to path, or to stdout for "-".
func writeJSON(path string, findings []analysis.Finding, stdout *os.File) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Position.Filename, Line: f.Position.Line, Col: f.Position.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selectAnalyzers resolves the -analyzers flag against the suite. A name
// listed twice is run once.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return suite, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if seen[name] {
			continue
		}
		seen[name] = true
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// modulePathOf recovers the module path from the loaded packages: the
// shortest package path is the module root (Load returns them sorted).
func modulePathOf(pkgs []*analysis.Package) string {
	if len(pkgs) == 0 {
		return ""
	}
	mod := pkgs[0].Path
	for _, p := range pkgs[1:] {
		if len(p.Path) < len(mod) {
			mod = p.Path
		}
	}
	// A module with no root package still shares the first path segment
	// prefix; trim known subtrees.
	for _, seg := range []string{"/internal/", "/cmd/"} {
		if i := strings.Index(mod, seg); i >= 0 {
			mod = mod[:i]
		}
	}
	return mod
}
