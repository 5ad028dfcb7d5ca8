package analysis

import (
	"go/ast"
	"go/types"
)

// FuncDecls returns every function and method declaration in the pass's
// files, in file order. The concurrency analyzers iterate this instead of
// re-walking each file: their unit of analysis is the function body.
func (p *Pass) FuncDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// FuncObjOf resolves a function declaration to its type-checker object,
// keying the per-package call graph the lockorder analyzer builds.
// Returns nil for unresolvable declarations.
func (p *Pass) FuncObjOf(fn *ast.FuncDecl) *types.Func {
	if obj, ok := p.TypesInfo.Defs[fn.Name]; ok {
		if f, ok := obj.(*types.Func); ok {
			return f
		}
	}
	return nil
}

// FuncIndex maps every function object of the package back to its
// declaration, so call sites resolved through TypesInfo (plain calls via
// Uses, method calls via Selections) can be followed into their bodies.
func (p *Pass) FuncIndex() map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, fn := range p.FuncDecls() {
		if obj := p.FuncObjOf(fn); obj != nil {
			idx[obj] = fn
		}
	}
	return idx
}

// ReceiverVar returns the declared receiver variable of a method (nil for
// plain functions and anonymous receivers). The guardedby analyzer only
// trusts field accesses rooted at this variable: an access through a
// second instance of the same type is a different lock's data.
func (p *Pass) ReceiverVar(fn *ast.FuncDecl) *types.Var {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil
	}
	name := fn.Recv.List[0].Names[0]
	if obj, ok := p.TypesInfo.Defs[name]; ok {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	return nil
}

// CalleeDecl resolves a call expression to a function declared in this
// package: plain identifier calls through Uses, method calls through
// Selections. Returns nil for locals, builtins, and extra-package callees
// (whose bodies the per-package analyzers cannot see).
func (p *Pass) CalleeDecl(call *ast.CallExpr, idx map[*types.Func]*ast.FuncDecl) *ast.FuncDecl {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := p.TypesInfo.Uses[fun]; ok {
			if f, ok := obj.(*types.Func); ok {
				return idx[f]
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return idx[f]
			}
		}
		// pkg.Func calls resolve through Uses on the Sel, not Selections.
		if obj, ok := p.TypesInfo.Uses[fun.Sel]; ok {
			if f, ok := obj.(*types.Func); ok {
				return idx[f]
			}
		}
	}
	return nil
}

// FieldOf resolves a selector expression to the struct field it selects
// (nil when the selector is a method, a package member, or unresolved).
// This is the Selections-based receiver-field resolver the guardedby
// analyzer keys on: the returned *types.Var is the identity of the field
// across every access site in the package.
func (p *Pass) FieldOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := p.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok {
		return v
	}
	return nil
}
