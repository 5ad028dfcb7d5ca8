// Package analysis is TinyLEO's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a module-aware package loader
// and a driver with a narrow suppression directive.
//
// Why not x/tools itself? The repo's build policy is stdlib-only (see
// ARCHITECTURE.md "Determinism contract"), and everything the four
// tinyleo analyzers need — parsed ASTs, type-checked identifier uses for
// our own packages, and package-name resolution for stdlib imports —
// go/ast and go/types provide directly. The API shapes deliberately
// mirror x/tools so an analyzer written here ports to a multichecker
// there by changing one import.
//
// Analyzers, each kept because it caught something or has no test that
// checks the same property:
//
//   - maporder:     map iteration order escaping into ordered output
//   - hotpathalloc: unguarded telemetry on //tinyleo:hotpath functions
//   - guardedby:    //tinyleo:guardedby fields accessed without their mutex
//   - lockorder:    cycles in a package's lock-acquisition graph
//
// Suppression: a comment "//lint:tinyleo-ignore <reason>" on the flagged
// line (or the line above) silences diagnostics there. The reason is
// mandatory; a bare directive is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -analyzers filters.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects one package via the Pass and reports diagnostics.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring x/tools' analysis.Pass.
type Pass struct {
	// Analyzer is the check being run (diagnostics are attributed to it).
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package (may contain errors for imports
	// outside the module; see the loader's stub importer).
	Pkg *types.Package
	// PkgPath is the package's import path within the module.
	PkgPath string
	// TypesInfo records identifier uses, definitions, and expression
	// types. External (stdlib) packages resolve to stub packages, so
	// package-name resolution (PkgName) works everywhere while member
	// lookups only resolve for intra-module packages.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos anchors the finding (the driver renders file:line:col).
	Pos token.Pos
	// Message states the contract violation and the expected fix.
	Message string
	// Analyzer is filled by the driver.
	Analyzer string
}

// Finding is a rendered diagnostic with its resolved position.
type Finding struct {
	// Position locates the finding in the source tree.
	Position token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message is the diagnostic text.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// PkgNameOf resolves the package an identifier refers to when it is the
// base of a qualified reference (e.g. the "time" in time.Now). Returns
// the imported package's path and true, or "" and false when id is not a
// package name. Works for stdlib imports even though the loader stubs
// them: PkgName objects carry the import path regardless.
func (p *Pass) PkgNameOf(id *ast.Ident) (string, bool) {
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path(), true
		}
	}
	return "", false
}

// CalleePkgFunc resolves a call of the form pkg.Func(...) to its package
// path and function name. ok is false for method calls, locals, and
// unresolvable callees.
func (p *Pass) CalleePkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	base, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path, isPkg := p.PkgNameOf(base)
	if !isPkg {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}
