// Package repro_test is the docs gate: go test checks the markdown docs
// against the code, so drift fails like any other test. OPERATIONS.md's
// "Keeping these docs honest" says what each check guards.
package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// checkedDocs are the markdown files the gate reads. The first one ends
// in the flag reference.
var checkedDocs = []string{"OPERATIONS.md", "README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "DESIGN.md"}

// flagMarker opens each generated table. The first one at the start of a
// line opens the generated region, which runs to the end of the file.
const flagMarker = "<!-- flags: "

func TestDocs(t *testing.T) {
	defs, problems := checkDocs(os.DirFS("."), checkedDocs...)
	for _, p := range problems {
		t.Error(p)
	}
	n := 0
	for _, set := range defs {
		n += len(set)
	}
	t.Logf("%d flags in %d sets; %d docs", n, len(defs), len(checkedDocs))
}

// checkDocs runs the three checks over docs in tree, which holds the
// command sources under cmd/. The first doc carries the flag reference.
func checkDocs(tree fs.FS, docs ...string) (map[string][]flagDef, []string) {
	defs, err := extractFlags(tree, "cmd")
	if err != nil {
		return nil, []string{err.Error()}
	}
	var problems []string
	for i, name := range docs {
		src, err := fs.ReadFile(tree, name)
		if err != nil {
			return defs, append(problems, err.Error())
		}
		doc := string(src)
		if i == 0 {
			if p := checkFlagReference(name, doc, defs); p != "" {
				problems = append(problems, p)
			}
		}
		for j, line := range strings.Split(doc, "\n") {
			if strings.TrimSpace(line) == "```go" {
				problems = append(problems, fmt.Sprintf("%s:%d: a fenced go block: move the code into a compiled Example and link to it", name, j+1))
			}
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				if strings.Contains(m[1], "://") || strings.HasPrefix(m[1], "mailto:") {
					continue
				}
				if err := checkLink(tree, name, m[1]); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: link (%s): %v", name, j+1, m[1], err))
				}
			}
		}
	}
	return defs, problems
}

// flagReference renders the generated region: one table per flag set,
// sets in name order, each followed by a blank line.
func flagReference(defs map[string][]flagDef) string {
	var b strings.Builder
	for _, set := range slices.Sorted(maps.Keys(defs)) {
		b.WriteString(formatTable(set, defs[set]) + "\n")
	}
	return b.String()
}

// checkFlagReference compares the generated region of doc with the
// tables generated from defs and describes the difference, if any.
func checkFlagReference(name, doc string, defs map[string][]flagDef) string {
	want := flagReference(defs)
	start := strings.Index(doc, "\n"+flagMarker) + 1
	if start == 0 {
		return fmt.Sprintf("%s: no flag reference (no line starting %q); append:\n\n%s", name, flagMarker, want)
	}
	got := doc[start:]
	if got == want {
		return ""
	}
	line := strings.Count(doc[:start], "\n") + 1
	return fmt.Sprintf("%s: the flag reference differs from the sources (- doc, + sources):\n%s\n"+
		"Replace everything from line %d to the end of %s with:\n\n%s", name, lineDiff(got, want, line), line, name, want)
}

// lineDiff is a one-hunk unified diff of a against b: the lines between
// their common prefix and suffix, with three lines of context, numbered
// from first.
func lineDiff(a, b string, first int) string {
	x := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	y := strings.Split(strings.TrimSuffix(b, "\n"), "\n")
	p, s := 0, 0
	for p < len(x) && p < len(y) && x[p] == y[p] {
		p++
	}
	for s < len(x)-p && s < len(y)-p && x[len(x)-1-s] == y[len(y)-1-s] {
		s++
	}
	lo, ctx := max(p-3, 0), min(s, 3)
	var out strings.Builder
	fmt.Fprintf(&out, "@@ -%d,%d +%d,%d @@\n", first+lo, len(x)-s+ctx-lo, first+lo, len(y)-s+ctx-lo)
	write := func(mark string, lines []string) {
		for _, l := range lines {
			out.WriteString(mark + l + "\n")
		}
	}
	write(" ", x[lo:p])
	write("-", x[p:len(x)-s])
	write("+", y[p:len(y)-s])
	write(" ", x[len(x)-s:len(x)-s+ctx])
	return out.String()
}

// flagDef is one flag definition discovered in the sources.
type flagDef struct {
	Name    string // flag name without the leading dash
	Default string // rendered default expression
	Usage   string // usage string, as -help prints it
}

// defMethods are the flag.FlagSet definition methods we attribute.
// The *Var variants take the name as the second argument.
var defMethods = map[string]int{
	"String": 0, "Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0, "Duration": 0,
	"StringVar": 1, "BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "DurationVar": 1,
}

// extractFlags parses every non-test .go file of each command directory
// under dir and collects flag definitions grouped by set name, each set
// sorted by flag name.
func extractFlags(tree fs.FS, dir string) (map[string][]flagDef, error) {
	files, err := fs.Glob(tree, path.Join(dir, "*", "*.go"))
	if err != nil {
		return nil, err
	}
	defs := map[string][]flagDef{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := fs.ReadFile(tree, file)
		if err != nil {
			return nil, err
		}
		if err := extractFile(file, src, path.Base(path.Dir(file)), defs); err != nil {
			return nil, err
		}
	}
	for _, set := range defs {
		slices.SortFunc(set, func(a, b flagDef) int { return strings.Compare(a.Name, b.Name) })
	}
	return defs, nil
}

// extractFile walks one source file. Each function body is scanned in
// source order: assignments from flag.NewFlagSet bind a variable to a
// set name, and subsequent definition calls on that variable (or on the
// flag package itself, meaning the default set = the binary) record a
// flagDef.
func extractFile(name string, src []byte, binary string, defs map[string][]flagDef) error {
	f, err := parser.ParseFile(token.NewFileSet(), name, src, 0)
	if err != nil {
		return fmt.Errorf("flags: parse %s: %w", name, err)
	}
	var setOf map[string]string // local var name -> flag set name
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncDecl:
			setOf = map[string]string{}
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				if set, ok := flagSetLiteral(rhs); ok && i < len(node.Lhs) {
					if id, ok := node.Lhs[i].(*ast.Ident); ok {
						setOf[id.Name] = set
					}
				}
			}
		case *ast.CallExpr:
			sel, _ := node.Fun.(*ast.SelectorExpr)
			if sel == nil {
				return true
			}
			recv, _ := sel.X.(*ast.Ident)
			nameArg, isDef := defMethods[sel.Sel.Name]
			if recv == nil || !isDef || len(node.Args) < nameArg+3 {
				return true
			}
			set, bound := setOf[recv.Name]
			if recv.Name == "flag" && recv.Obj == nil {
				set, bound = binary, true
			}
			name, ok1 := stringLit(node.Args[nameArg])
			usage, ok2 := stringLit(node.Args[nameArg+2])
			if bound && ok1 && ok2 {
				defs[set] = append(defs[set], flagDef{name, renderExpr(node.Args[nameArg+1]), usage})
			}
		}
		return true
	})
	return nil
}

// flagSetLiteral matches flag.NewFlagSet("name", ...) and returns name.
func flagSetLiteral(e ast.Expr) (string, bool) {
	call, _ := e.(*ast.CallExpr)
	if call == nil || len(call.Args) < 1 {
		return "", false
	}
	sel, _ := call.Fun.(*ast.SelectorExpr)
	if sel == nil || sel.Sel.Name != "NewFlagSet" {
		return "", false
	}
	if pkg, _ := sel.X.(*ast.Ident); pkg == nil || pkg.Name != "flag" {
		return "", false
	}
	return stringLit(call.Args[0])
}

// stringLit evaluates a string literal or a concatenation of literals.
func stringLit(e ast.Expr) (string, bool) {
	switch node := e.(type) {
	case *ast.BasicLit:
		if node.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(node.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if node.Op != token.ADD {
			return "", false
		}
		l, ok1 := stringLit(node.X)
		r, ok2 := stringLit(node.Y)
		return l + r, ok1 && ok2
	case *ast.ParenExpr:
		return stringLit(node.X)
	}
	return "", false
}

// renderExpr prints the default-value expression as source, unquoting
// plain string literals so tables read `127.0.0.1:7601`, not `"..."`.
func renderExpr(e ast.Expr) string {
	if s, ok := stringLit(e); ok {
		return s
	}
	return types.ExprString(e)
}

// formatTable renders one flag set's marker and markdown table.
func formatTable(set string, defs []flagDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s -->\n", flagMarker, set)
	b.WriteString("| Flag | Default | Description |\n|---|---|---|\n")
	for _, d := range defs {
		def := " "
		if d.Default != "" {
			def = "`" + d.Default + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", d.Name, def, d.Usage)
	}
	return b.String()
}

var (
	linkRE    = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	headingRE = regexp.MustCompile(`^#{1,6}\s+(.*)$`)
	slugDrop  = regexp.MustCompile(`[^a-z0-9 \-_]`)
)

// checkLink resolves one relative target (with optional #anchor)
// against tree, from the linking file's directory.
func checkLink(tree fs.FS, from, target string) error {
	file, frag, _ := strings.Cut(target, "#")
	resolved := from
	if file != "" {
		resolved = path.Join(path.Dir(from), file)
		if _, err := fs.Stat(tree, resolved); err != nil {
			return fmt.Errorf("target does not exist")
		}
	}
	if frag == "" {
		return nil
	}
	if !strings.HasSuffix(resolved, ".md") {
		return fmt.Errorf("anchor into a non-markdown target")
	}
	slugs, err := headingSlugs(tree, resolved)
	if err != nil {
		return err
	}
	if !slugs[frag] {
		return fmt.Errorf("no heading with slug %q in %s", frag, resolved)
	}
	return nil
}

// headingSlugs collects the GitHub anchor slugs of a markdown file's
// headings, skipping fenced code blocks; a repeated slug gets -1, -2, ...
func headingSlugs(tree fs.FS, name string) (map[string]bool, error) {
	src, err := fs.ReadFile(tree, name)
	if err != nil {
		return nil, err
	}
	slugs := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
		}
		m := headingRE.FindStringSubmatch(line)
		if inFence || m == nil {
			continue
		}
		slug := slugify(m[1])
		if n := counts[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		}
		slugs[slug] = true
		counts[slug]++
	}
	return slugs, nil
}

// slugify applies GitHub's heading-to-anchor rules.
func slugify(h string) string {
	h = strings.TrimSpace(h)
	h = strings.ReplaceAll(h, "`", "")
	h = strings.ToLower(h)
	h = slugDrop.ReplaceAllString(h, "")
	return strings.ReplaceAll(h, " ", "-")
}

// cmdTree is a fabricated command tree: one binary with package-level
// flags and one with a named flag set.
func cmdTree() fstest.MapFS {
	return fstest.MapFS{
		"cmd/toy-a/main.go": {Data: []byte(`package main

import "flag"

func main() {
	_ = flag.String("addr", "127.0.0.1:1", "listen address")
	_ = flag.Int("n", 3, "agent "+"count")
	_ = flag.Bool("v", false, "verbose output")
}
`)},
		"cmd/toy-b/main.go": {Data: []byte(`package main

import "flag"

func sub() { fs := flag.NewFlagSet("toy-b sub", flag.ContinueOnError); _ = fs.String("out", "", "output path") }

func main() { _ = flag.Duration("wait", 0, "how long to wait"); sub() }
`)},
	}
}

func TestExtractFlags(t *testing.T) {
	defs, err := extractFlags(cmdTree(), "cmd")
	if err != nil {
		t.Fatalf("extractFlags: %v", err)
	}
	// Sorted by name, string defaults unquoted, concatenated usage strings
	// evaluated, a NewFlagSet's flags in a set of their own.
	want := map[string][]flagDef{
		"toy-a":     {{"addr", "127.0.0.1:1", "listen address"}, {"n", "3", "agent count"}, {"v", "false", "verbose output"}},
		"toy-b":     {{"wait", "0", "how long to wait"}},
		"toy-b sub": {{"out", "", "output path"}},
	}
	if !reflect.DeepEqual(defs, want) {
		t.Errorf("extractFlags = %+v\nwant %+v", defs, want)
	}
}

// TestDocsGateCatchesDrift seeds each drift the gate guards into an
// in-memory tree that passes, and expects the gate to name it.
func TestDocsGateCatchesDrift(t *testing.T) {
	base := cmdTree()
	base["README.md"] = &fstest.MapFile{Data: []byte("# Readme\n\n## Usage\n\n## Repeat\n\n## Repeat\n")}
	ops := "# Ops\n\nSee [the readme](README.md), [usage](README.md#usage), [again](README.md#repeat-1) and [below](#flag-reference).\n\n## Flag reference\n\n"
	defs, _ := checkDocs(base) // no docs: only the extraction
	base["OPERATIONS.md"] = &fstest.MapFile{Data: []byte(ops + flagReference(defs))}
	if _, problems := checkDocs(base, "OPERATIONS.md", "README.md"); len(problems) != 0 {
		t.Fatalf("the undrifted tree fails: %v", problems)
	}

	const newSet = `func other() { fs := flag.NewFlagSet("toy-b other", 0); _ = fs.Int("k", 1, "retries") }

func main() {`
	for _, c := range []struct{ drift, file, old, new, want string }{
		{"changed usage string", "cmd/toy-a/main.go", `"listen address"`, `"address to listen on"`, "+| `-addr` | `127.0.0.1:1` | address to listen on |"},
		{"flag with no row", "OPERATIONS.md", "| `-n` | `3` | agent count |\n", "", "+| `-n` |"},
		{"row with no flag", "OPERATIONS.md", "| `-v` | `false` | verbose output |\n", "| `-v` | `false` | verbose output |\n| `-q` | `false` | quiet |\n", "-| `-q` |"},
		{"stale default", "cmd/toy-a/main.go", `"127.0.0.1:1"`, `"127.0.0.1:2"`, "+| `-addr` | `127.0.0.1:2` |"},
		{"missing flag set", "cmd/toy-b/main.go", "func main() {", newSet, "+<!-- flags: toy-b other -->"},
		{"broken relative link", "OPERATIONS.md", "(README.md)", "(READ.md)", "link (READ.md): target does not exist"},
		{"broken anchor", "OPERATIONS.md", "README.md#usage", "README.md#use", `no heading with slug "use"`},
		{"duplicate-heading slug", "README.md", "## Repeat\n", "", `no heading with slug "repeat-1"`},
		{"fenced go block", "OPERATIONS.md", "## Flag reference", "```go\nx := 1\n```\n\n## Flag reference", "OPERATIONS.md:5: a fenced go block"},
	} {
		tree := maps.Clone(base)
		tree[c.file] = &fstest.MapFile{Data: []byte(strings.Replace(string(tree[c.file].Data), c.old, c.new, 1))}
		_, problems := checkDocs(tree, "OPERATIONS.md", "README.md")
		if len(problems) != 1 || !strings.Contains(problems[0], c.want) {
			t.Errorf("%s: want one problem naming %q, got %q", c.drift, c.want, problems)
		}
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Distributed campaign runner": "distributed-campaign-runner",
		"The `fleet` API":             "the-fleet-api",
		"What's next?":                "whats-next",
		"CI / CD":                     "ci--cd",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckLinkAndAnchors(t *testing.T) {
	tree := fstest.MapFS{
		"TARGET.md": {Data: []byte("# One\n\n## Repeat\n\n## Repeat\n\n```\n# not a heading\n```\n")},
		"FROM.md":   {Data: []byte("x")},
	}
	for target, ok := range map[string]bool{
		"TARGET.md":               true,
		"TARGET.md#one":           true,
		"TARGET.md#repeat":        true,
		"TARGET.md#repeat-1":      true,
		"TARGET.md#repeat-2":      false,
		"TARGET.md#not-a-heading": false,
		"TARGET.md#missing":       false,
		"nope.md":                 false,
		"#one":                    false, // self-anchor into FROM.md, which has no headings
	} {
		if err := checkLink(tree, "FROM.md", target); (err == nil) != ok {
			t.Errorf("checkLink(%s): err=%v want ok=%v", target, err, ok)
		}
	}
}
