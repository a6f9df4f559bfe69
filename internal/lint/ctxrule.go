package lint

import (
	"go/ast"
	"go/types"
)

// ctx-propagation: a function that receives a context.Context must thread
// it down, so the controller's timeout/retry layer (PR 5) cannot be
// bypassed by a context-dropping call chain. Three checks:
//
//  1. context.Background()/context.TODO() inside a function that already
//     has a ctx in lexical scope (its own parameter, or — for closures —
//     a parameter of an enclosing function) discards the caller's
//     deadline and cancellation.
//  2. A named ctx parameter that is never used: the signature promises
//     propagation the body does not deliver.
//  3. A chain drop: a ctx-having function calls a ctx-less in-module
//     function that transitively (through ctx-less functions only)
//     constructs a fresh context — the deadline silently evaporates
//     partway down the stack. Reported at the dropping call site.

var ctxPropagation = &Analyzer{
	Name: "ctx-propagation",
	Doc: "a function that receives a context.Context must propagate it: no " +
		"context.Background()/TODO() while a ctx is in scope, no unused ctx " +
		"parameters, and no calls into ctx-less chains that manufacture a " +
		"fresh context further down",
	runProgram: func(p *Program, report func(f *File, n ast.Node, format string, args ...any)) {
		info := map[*FuncNode]*ctxInfo{}
		for _, n := range p.Nodes {
			info[n] = ctxInfoFor(n)
		}
		// Transitive closure: which ctx-less nodes reach a fresh-context
		// construction through ctx-less nodes only.
		reachesFresh := map[*FuncNode]bool{}
		var probe func(n *FuncNode, seen map[*FuncNode]bool) bool
		probe = func(n *FuncNode, seen map[*FuncNode]bool) bool {
			if seen[n] {
				return reachesFresh[n]
			}
			seen[n] = true
			ci := info[n]
			if len(ci.fresh) > 0 {
				reachesFresh[n] = true
				return true
			}
			for _, e := range n.Edges {
				c := e.Callee
				if info[c].ctxParam != nil {
					continue // ctx re-enters
				}
				if probe(c, seen) {
					reachesFresh[n] = true
					return true
				}
			}
			return false
		}
		seen := map[*FuncNode]bool{}
		for _, n := range p.Nodes {
			if info[n].ctxParam == nil {
				probe(n, seen)
			}
		}

		for _, n := range p.Nodes {
			ci := info[n]
			inScope := ci.ctxParam != nil
			for e := n.Enclosing; !inScope && e != nil; e = e.Enclosing {
				inScope = info[e].ctxParam != nil
			}
			// Check 1: fresh contexts while one is in scope.
			if inScope {
				for _, call := range ci.fresh {
					report(n.File, call, "fresh context constructed while a ctx is in scope; propagate the existing one")
				}
			}
			// Check 2: unused ctx parameter.
			if ci.ctxParam != nil && ci.ctxParam.Name() != "_" && !usesObj(n, ci.ctxParam) {
				report(n.File, n.Body(), "ctx parameter %s is never used; propagate it to callees or drop it", ci.ctxParam.Name())
			}
			// Check 3: chain drops.
			if ci.ctxParam == nil {
				continue
			}
			for _, e := range n.Edges {
				c := e.Callee
				if info[c].ctxParam != nil {
					continue
				}
				if reachesFresh[c] {
					report(n.File, e.Call, "call into %s drops ctx: the chain below constructs a fresh context; add a ctx parameter through it", c.Name)
				}
			}
		}
	},
}

// ctxInfo is the per-node state the rule needs.
type ctxInfo struct {
	// ctxParam is the first parameter of type context.Context, if any.
	ctxParam *types.Var
	// fresh lists the context.Background()/TODO() call sites in the body
	// (excluding nested literals, which are their own nodes).
	fresh []*ast.CallExpr
}

func ctxInfoFor(n *FuncNode) *ctxInfo {
	ci := &ctxInfo{}
	if sig := n.Sig(); sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				ci.ctxParam = sig.Params().At(i)
				break
			}
		}
	}
	ast.Inspect(n.Body(), func(c ast.Node) bool {
		if lit, ok := c.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := importedCall(n.File, call, "context"); ok && (name == "Background" || name == "TODO") {
			ci.fresh = append(ci.fresh, call)
		}
		return true
	})
	return ci
}

// usesObj reports whether the node's body references obj (nested literals
// included: they capture the parameter lexically).
func usesObj(n *FuncNode, obj types.Object) bool {
	found := false
	ast.Inspect(n.Body(), func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && n.File.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
