// Package maporder flags `for … range` over a map whose iteration
// result escapes into ordered output — the exact bug class behind PR 4's
// mpc.Repair nondeterminism, where map-order iteration over intent edges
// let the runtime's randomized order decide which edge won a scarce
// replacement satellite.
//
// Go randomizes map iteration order on purpose; any of the following
// inside a map-range body therefore makes output differ run-to-run on
// identical inputs:
//
//  1. append to a slice declared outside the loop, without a later
//     sort of that slice in the same function (per-key buckets like
//     out[k] = append(out[k], …) are exempt: key-indexed writes are
//     order-independent);
//  2. a serialization / emission sink (flightrec.Emit, Write, Encode,
//     fmt.Fprint*, Send, …) whose arguments derive from the iteration;
//  3. an ordered mutation of outer state (Add*/Set*/Push*/Insert*/
//     Register*/Enqueue*/Connect* methods on an object declared outside
//     the loop) with arguments derived from the iteration — first-wins
//     and last-wins registrations depend on encounter order;
//  4. a floating-point `+=` or `-=` into a variable declared outside the
//     loop, of a value derived from the iteration: float addition is not
//     associative, so the sum's last bits — and any comparison or tie
//     they decide — follow the iteration order (per-key accumulators like
//     sum[k] += v are exempt, as in rule 1).
//
// Fix by sorting: collect the keys, sort them, then iterate the sorted
// slice (or keep the values in a slice to begin with). Where order
// provably cannot matter, annotate the line with
// //lint:tinyleo-ignore <reason>.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration order escaping into appends, sinks, or ordered mutations",
	Run:  run,
}

// sinkFuncs are package-level emission functions: package path → names.
var sinkFuncs = map[string]map[string]bool{
	"repro/internal/obs/flightrec": {"Emit": true, "RecordSlot": true},
	"fmt": {"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Print": true, "Printf": true, "Println": true},
}

// sinkMethods are method names whose call serializes or transmits data
// in call order.
var sinkMethods = map[string]bool{
	"Emit": true, "Write": true, "WriteString": true, "WriteByte": true,
	"Encode": true, "Send": true, "Inject": true,
}

// mutationPrefixes mark methods that register state on an outer object;
// called from a map range with iteration-derived arguments, first-wins /
// last-wins behavior depends on encounter order.
var mutationPrefixes = []string{
	"Add", "Set", "Push", "Insert", "Register", "Enqueue", "Connect",
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFunc(pass, fn)
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapRange(pass, rng) || !hasNamedVar(rng) {
			return true
		}
		checkMapRange(pass, fn, rng)
		return true
	})
}

// isMapRange reports whether the range expression is a map.
func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// hasNamedVar reports whether the range binds a non-blank key or value:
// `for range m` bodies cannot observe iteration order.
func hasNamedVar(rng *ast.RangeStmt) bool {
	named := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name != "_"
	}
	return (rng.Key != nil && named(rng.Key)) || (rng.Value != nil && named(rng.Value))
}

func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	rangeLine := pass.Fset.Position(rng.Pos()).Line
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			checkFloatAccumulate(pass, as, rng, rangeLine)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 1: append to an outer slice.
		if isBuiltinAppend(pass, call) && len(call.Args) > 0 {
			target := call.Args[0]
			root := rootIdent(target)
			if root == nil || !declaredOutside(pass, root, rng) {
				return true
			}
			if indexedByLoopVar(pass, target, rng) {
				return true // per-key bucket: order-independent
			}
			if sortedLater(pass, fn, rng, root) {
				return true
			}
			pass.Reportf(call.Pos(),
				"append to %q inside map range (line %d) without a later sort: "+
					"iteration order escapes into the slice; sort the keys first or sort %q afterwards",
				exprString(target), rangeLine, root.Name)
			return true
		}
		// Rules 2 and 3 need a callee and loop-derived arguments.
		if !argsDeriveFromLoop(pass, call, rng) {
			return true
		}
		if pkg, name, ok := pass.CalleePkgFunc(call); ok {
			if names, isSink := sinkFuncs[pkg]; isSink && names[name] {
				pass.Reportf(call.Pos(),
					"%s.%s called with map-iteration data (range at line %d): "+
						"emission order is nondeterministic; iterate sorted keys instead",
					pathBase(pkg), name, rangeLine)
			}
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := rootIdent(sel.X)
		if recv == nil || !declaredOutside(pass, recv, rng) {
			return true
		}
		name := sel.Sel.Name
		if sinkMethods[name] {
			pass.Reportf(call.Pos(),
				"%s.%s called with map-iteration data (range at line %d): "+
					"call order is nondeterministic; iterate sorted keys instead",
				recv.Name, name, rangeLine)
			return true
		}
		for _, prefix := range mutationPrefixes {
			if strings.HasPrefix(name, prefix) {
				pass.Reportf(call.Pos(),
					"%s.%s mutates state outside the map range (line %d) in iteration order: "+
						"first/last-wins registration is nondeterministic; iterate sorted keys instead",
					recv.Name, name, rangeLine)
				return true
			}
		}
		return true
	})
}

// checkFloatAccumulate applies rule 4 to one assignment inside the range.
func checkFloatAccumulate(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt, rangeLine int) {
	if (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || len(as.Lhs) != 1 {
		return
	}
	target := as.Lhs[0]
	tv, ok := pass.TypesInfo.Types[target]
	if !ok || tv.Type == nil {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	root := rootIdent(target)
	if root == nil || !declaredOutside(pass, root, rng) || indexedByLoopVar(pass, target, rng) {
		return
	}
	if !derivesFromLoop(pass, as.Rhs[0], rng) {
		return
	}
	pass.Reportf(as.Pos(),
		"float %s into %q inside map range (line %d): the sum's last bits follow iteration order; "+
			"sum over sorted keys or a slice instead",
		as.Tok, exprString(target), rangeLine)
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return true // unresolved: assume the builtin
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// rootIdent peels selectors, indexes, parens, derefs, and call chains to
// the base identifier of an expression (nil when there is none, e.g. a
// composite literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier through either the use or def tables.
func objectOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// declaredOutside reports whether id's object is declared outside the
// range statement (package-level, parameter, or an enclosing scope).
// Unresolvable identifiers count as outside (conservative: report).
func declaredOutside(pass *analysis.Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := objectOf(pass, id)
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// loopObjects returns the objects bound by the range statement's key and
// value, when named.
func loopObjects(pass *analysis.Pass, rng *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := objectOf(pass, id); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// derivesFromLoop reports whether the expression mentions the range's
// key/value variables or anything declared inside the range body (a
// cheap syntactic taint: locals computed from the iteration).
func derivesFromLoop(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	loopVars := loopObjects(pass, rng)
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objectOf(pass, id)
		if obj == nil {
			return true
		}
		for _, lv := range loopVars {
			if obj == lv {
				found = true
				return false
			}
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			found = true
			return false
		}
		return true
	})
	return found
}

// argsDeriveFromLoop reports whether any call argument derives from the
// iteration.
func argsDeriveFromLoop(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	for _, arg := range call.Args {
		if derivesFromLoop(pass, arg, rng) {
			return true
		}
	}
	return false
}

// indexedByLoopVar reports whether the append target contains an index
// expression whose index derives from the loop — the per-key-bucket
// pattern out[k] = append(out[k], v), which iteration order cannot
// affect.
func indexedByLoopVar(pass *analysis.Pass, target ast.Expr, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(target, func(n ast.Node) bool {
		if idx, ok := n.(*ast.IndexExpr); ok && derivesFromLoop(pass, idx.Index, rng) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// sortedLater reports whether, after the range statement, the enclosing
// function sorts something rooted at the same object: a sort.* or
// slices.* call (or a .Sort() method) with an argument (or receiver)
// based on root.
func sortedLater(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, root *ast.Ident) bool {
	rootObj := objectOf(pass, root)
	sameRoot := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		if rootObj != nil {
			return objectOf(pass, id) == rootObj
		}
		return id.Name == root.Name
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if isSortCall(pass, call) {
			for _, arg := range call.Args {
				if sameRoot(arg) {
					found = true
					return false
				}
			}
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sort" && sameRoot(sel.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSortCall recognizes sorting calls: the sort and slices packages, and
// local helpers whose name starts with "sort" (sortInt32, sortInts, …).
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if pkg, _, ok := pass.CalleePkgFunc(call); ok {
		return pkg == "sort" || pkg == "slices"
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return strings.HasPrefix(id.Name, "sort") || strings.HasPrefix(id.Name, "Sort")
	}
	return false
}

func exprString(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "slice"
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
