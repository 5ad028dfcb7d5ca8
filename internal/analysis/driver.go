package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// IgnoreDirective is the suppression escape hatch: a comment of the form
//
//	//lint:tinyleo-ignore <reason>
//
// on the flagged line, or alone on the line above it, silences every
// analyzer diagnostic anchored there. The reason is mandatory and should
// say why the contract does not apply (e.g. "every connection is closed
// unconditionally; close order is not observable"); a reasonless
// directive is reported by the pseudo-analyzer "ignoredirective".
const IgnoreDirective = "lint:tinyleo-ignore"

// RunOptions tunes a driver Run.
type RunOptions struct {
	// ReportStaleIgnores adds an "ignoredirective" finding for every
	// suppression directive that suppressed zero diagnostics during the
	// run — a directive that earns its keep silences something; one that
	// does not is dead weight hiding future findings. Enable only when
	// the full analyzer suite runs: under an -analyzers subset a
	// directive aimed at an unselected analyzer would be called stale.
	ReportStaleIgnores bool
}

// Run executes every analyzer over every package and returns the
// surviving findings sorted by position. Suppressed diagnostics are
// dropped; malformed (reasonless) directives are themselves findings.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	return RunWithOptions(analyzers, pkgs, RunOptions{})
}

// RunWithOptions is Run with explicit driver options.
func RunWithOptions(analyzers []*Analyzer, pkgs []*Package, opts RunOptions) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.Path,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ig.suppressed(pos.Filename, pos.Line) {
					return
				}
				findings = append(findings, Finding{
					Position: pos, Analyzer: a.Name, Message: d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		findings = append(findings, ig.malformed...)
		if opts.ReportStaleIgnores {
			findings = append(findings, ig.stale()...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// directive is one well-formed ignore directive and how often it fired.
type directive struct {
	position token.Position
	used     int
}

// ignores records, per file, the lines on which diagnostics are
// suppressed (pointing back to the suppressing directive so stale ones
// can be detected), plus findings for directives missing their reason.
type ignores struct {
	lines      map[string]map[int]*directive
	directives []*directive
	malformed  []Finding
}

func (ig *ignores) suppressed(file string, line int) bool {
	d := ig.lines[file][line]
	if d == nil {
		return false
	}
	d.used++
	return true
}

// stale returns a finding for every directive that suppressed nothing.
func (ig *ignores) stale() []Finding {
	var out []Finding
	for _, d := range ig.directives {
		if d.used == 0 {
			out = append(out, Finding{
				Position: d.position,
				Analyzer: "ignoredirective",
				Message:  "tinyleo-ignore directive suppressed no findings in this run; remove it (stale suppressions hide future findings)",
			})
		}
	}
	return out
}

// collectIgnores scans a package's comments for ignore directives. A
// directive suppresses its own line and the line below it, covering both
// the end-of-line form and the annotation-above-the-statement form.
func collectIgnores(pkg *Package) *ignores {
	ig := &ignores{lines: map[string]map[int]*directive{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, IgnoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				// A nested comment ("//lint:tinyleo-ignore // note") is
				// not a reason.
				reason, _, _ := strings.Cut(rest, "//")
				reason = strings.TrimSpace(reason)
				if reason == "" {
					ig.malformed = append(ig.malformed, Finding{
						Position: pos,
						Analyzer: "ignoredirective",
						Message:  "tinyleo-ignore directive is missing its mandatory reason",
					})
					continue
				}
				m := ig.lines[pos.Filename]
				if m == nil {
					m = map[int]*directive{}
					ig.lines[pos.Filename] = m
				}
				d := &directive{position: pos}
				ig.directives = append(ig.directives, d)
				m[pos.Line] = d
				m[pos.Line+1] = d
			}
		}
	}
	return ig
}
