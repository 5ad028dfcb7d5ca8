package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// loadModule lays files (path -> source) out under a temp dir and loads
// them as module "tmpmod".
func loadModule(t *testing.T, files map[string]string) []*analysis.Package {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: dir, ModulePath: "tmpmod"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return pkgs
}

// flagCalls reports every call to a function literally named "flagged" —
// a minimal analyzer for exercising the driver's suppression machinery.
var flagCalls = &analysis.Analyzer{
	Name: "flagcalls",
	Doc:  "reports every call to a function named flagged",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagged" {
						pass.Reportf(call.Pos(), "call to flagged")
					}
				}
				return true
			})
		}
		return nil
	},
}

const staleSrc = `package p

func flagged() {}

func use() {
	flagged()
	flagged() //lint:tinyleo-ignore covered by the startup contract
	//lint:tinyleo-ignore nothing on the next line ever fires
	_ = 1
}
`

func TestRunReportsStaleIgnores(t *testing.T) {
	pkgs := loadModule(t, map[string]string{"p/p.go": staleSrc})
	findings, err := analysis.RunWithOptions(
		[]*analysis.Analyzer{flagCalls}, pkgs, analysis.RunOptions{ReportStaleIgnores: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (1 real, 1 stale directive), got %d:\n%s",
			len(findings), analysistest.Fprint(findings))
	}
	if f := findings[0]; f.Analyzer != "flagcalls" || f.Position.Line != 6 {
		t.Errorf("finding 0: want flagcalls at line 6, got %s", f)
	}
	if f := findings[1]; f.Analyzer != "ignoredirective" || f.Position.Line != 8 ||
		!strings.Contains(f.Message, "suppressed no findings") {
		t.Errorf("finding 1: want stale ignoredirective at line 8, got %s", f)
	}
}

func TestRunStaleIgnoresOffByDefault(t *testing.T) {
	pkgs := loadModule(t, map[string]string{"p/p.go": staleSrc})
	findings, err := analysis.Run([]*analysis.Analyzer{flagCalls}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "flagcalls" {
		t.Fatalf("want only the unsuppressed flagcalls finding, got:\n%s",
			analysistest.Fprint(findings))
	}
}

// resolveSrc exercises PkgNameOf/CalleePkgFunc edges: aliased imports,
// method calls and method values, calls through function variables, and
// a local variable shadowing a package name. Each call carries a unique
// string-literal argument used as its test key.
const resolveSrc = `package q

import (
	stdfmt "fmt"
	"strings"
)

type replacer struct{}

func (replacer) Replace(s string) string { return s }

func calls() {
	stdfmt.Println("aliased")
	var b strings.Builder
	b.WriteString("method call")
	f := b.WriteString
	f("method value")
	g := stdfmt.Println
	g("pkg func value")
	{
		strings := replacer{}
		strings.Replace("shadowed")
	}
	_ = strings.TrimSpace("still pkg")
}
`

func TestCalleePkgFuncEdges(t *testing.T) {
	pkgs := loadModule(t, map[string]string{"q/q.go": resolveSrc})
	var pkg *analysis.Package
	for _, p := range pkgs {
		if p.Path == "tmpmod/q" {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("package tmpmod/q not loaded")
	}
	pass := &analysis.Pass{
		Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types,
		PkgPath: pkg.Path, TypesInfo: pkg.Info,
	}

	expect := map[string]struct {
		pkg, name string
		ok        bool
	}{
		"aliased":        {"fmt", "Println", true},
		"method call":    {"", "", false},
		"method value":   {"", "", false},
		"pkg func value": {"", "", false},
		"shadowed":       {"", "", false},
		"still pkg":      {"strings", "TrimSpace", true},
	}
	seen := map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, ok := litArg(call)
			if !ok {
				return true
			}
			want, known := expect[key]
			if !known {
				return true
			}
			seen[key] = true
			pkgPath, name, resolved := pass.CalleePkgFunc(call)
			if pkgPath != want.pkg || name != want.name || resolved != want.ok {
				t.Errorf("%s: CalleePkgFunc = (%q, %q, %v), want (%q, %q, %v)",
					key, pkgPath, name, resolved, want.pkg, want.name, want.ok)
			}
			return true
		})
	}
	for key := range expect {
		if !seen[key] {
			t.Errorf("call keyed %q not found in testdata", key)
		}
	}
}

// litArg returns a call's single string-literal argument, unquoted.
func litArg(call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
