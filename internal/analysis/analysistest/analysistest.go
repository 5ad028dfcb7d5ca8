// Package analysistest runs an analyzer over golden testdata packages
// and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// Layout: <testdata>/src/<path>/... holds ordinary Go packages, rooted
// at module path "repro" — so a package under src/internal/mpc has
// import path repro/internal/mpc, letting testdata provide stub
// repro/internal/obs packages for the sinks maporder and hotpathalloc
// resolve by path.
//
// Expectations: a comment "// want \"re1\" \"re2\"" (standalone or at
// end of line) declares that the line produces one diagnostic matching
// each regexp. Every diagnostic must be wanted and every want matched.
// Ignore-directive suppression runs before matching, so a line carrying
// //lint:tinyleo-ignore <reason> needs no want — that IS the golden
// ignore-directive case.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestdataModule is the module path testdata packages are rooted at.
const TestdataModule = "repro"

// Run loads <testdata>/src, analyzes the packages named by patterns
// (module-relative, e.g. "internal/mpc"), and reports every mismatch
// between produced diagnostics and // want expectations on t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := analysis.Load(analysis.LoadConfig{
		Dir:        filepath.Join(testdata, "src"),
		ModulePath: TestdataModule,
	})
	if err != nil {
		t.Fatalf("loading %s: %v", testdata, err)
	}
	var selected []*analysis.Package
	for _, pkg := range pkgs {
		if analysis.Match(pkg, TestdataModule, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("no testdata packages match %v (loaded %d)", patterns, len(pkgs))
	}
	findings, err := analysis.Run([]*analysis.Analyzer{a}, selected)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, selected)
	for _, f := range findings {
		key := lineKey{f.Position.Filename, f.Position.Line}
		if !wants.match(key, f.Message) {
			t.Errorf("unexpected diagnostic:\n  %s", f)
		}
	}
	for key, ws := range wants.byLine {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	byLine map[lineKey][]*want
}

// match consumes the first unmatched want on the line whose regexp
// matches the message; false means the diagnostic was not expected.
func (ws *wantSet) match(key lineKey, message string) bool {
	for _, w := range ws.byLine[key] {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses // want comments out of the selected packages.
func collectWants(t *testing.T, pkgs []*analysis.Package) *wantSet {
	t.Helper()
	ws := &wantSet{byLine: map[lineKey][]*want{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					spec, ok := wantSpec(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, lit := range splitQuoted(t, pos.Filename, pos.Line, spec) {
						re, err := regexp.Compile(lit)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
						}
						key := lineKey{pos.Filename, pos.Line}
						ws.byLine[key] = append(ws.byLine[key], &want{re: re})
					}
				}
			}
		}
	}
	return ws
}

// wantSpec extracts the quoted-regexp list from a comment that is, or
// ends with, a want expectation.
func wantSpec(comment string) (string, bool) {
	if rest, ok := strings.CutPrefix(comment, "// want "); ok {
		return rest, true
	}
	if i := strings.LastIndex(comment, " // want "); i >= 0 {
		return comment[i+len(" // want "):], true
	}
	return "", false
}

// splitQuoted parses a space-separated list of Go string literals.
func splitQuoted(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s:%d: want list must hold quoted regexps, got %q", file, line, s)
		}
		end := strings.IndexByte(s[1:], quote)
		for quote == '"' && end >= 0 && s[end] == '\\' {
			next := strings.IndexByte(s[end+2:], quote)
			if next < 0 {
				end = -1
				break
			}
			end += next + 1
		}
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want regexp in %q", file, line, s)
		}
		lit := s[:end+2]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s:%d: bad want literal %s: %v", file, line, lit, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: empty want list", file, line)
	}
	return out
}

// Fprint renders findings one per line (used by driver tests and the
// multichecker's own tests).
func Fprint(findings []analysis.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintln(&b, f.String())
	}
	return b.String()
}
