package lint

import (
	"go/ast"
	"go/types"
)

// This file builds the whole-program view ctx-propagation runs on: a
// direct-call graph over every non-test file Load returned. The graph is
// module-local — edges point only at functions whose bodies we loaded —
// and holds static calls alone: a call through an interface, a func-typed
// field or a function value has no edge. Function literals are nodes of
// their own (they see their enclosing function's parameters lexically) but
// are not call targets.

// Edge is one resolved call from a function body to an in-module function.
type Edge struct {
	// Call is the call expression inside the caller's body.
	Call *ast.CallExpr
	// Callee is the target node.
	Callee *FuncNode
}

// FuncNode is one function in the program: a declared function or method
// (Decl != nil) or a function literal (Lit != nil).
type FuncNode struct {
	File *File
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	// Obj is the declared function's type object (its Origin for
	// generics); nil for literals.
	Obj *types.Func
	// Name is a stable human-readable name, "pkg.Func" or
	// "pkg.(T).Method"; empty for literals.
	Name string
	// Enclosing is the function node a literal is defined inside; nil
	// for declarations.
	Enclosing *FuncNode
	// Edges are the resolved outgoing calls, ordered by call site.
	Edges []Edge
}

// Body returns the function's body block (never nil for nodes in a Program).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Sig returns the node's signature.
func (n *FuncNode) Sig() *types.Signature {
	if n.Obj != nil {
		return n.Obj.Type().(*types.Signature)
	}
	if tv, ok := n.File.Info.Types[n.Lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// Program is the whole-module view shared by the call-graph analyzers.
type Program struct {
	// Files holds the non-test files the call graph is built over.
	Files []*File
	// Nodes lists every function in deterministic order (file, then
	// position).
	Nodes []*FuncNode
	// ByKey maps a declared function's stable identity to its node.
	// Object identity cannot be used: each package is type-checked
	// independently, so the same function is a different *types.Func
	// when seen through export data than from its own source.
	ByKey map[string]*FuncNode
}

// origin returns fn's generic origin, so instantiations share one node.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// funcKey renders a declared function's stable cross-package identity:
// "pkgpath.Recv.Name" for methods, "pkgpath.Name" for functions.
func funcKey(fn *types.Func) string {
	fn = origin(fn)
	key := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			key = named.Origin().Obj().Name() + "." + key
		}
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// BuildProgram constructs the call graph over the non-test files.
func BuildProgram(files []*File) *Program {
	p := &Program{ByKey: map[string]*FuncNode{}}
	for _, f := range files {
		if !f.IsTest {
			p.Files = append(p.Files, f)
		}
	}

	// Pass 1: create a node per function declaration.
	for _, f := range p.Files {
		for _, d := range f.Ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := f.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &FuncNode{File: f, Decl: fd, Obj: origin(obj), Name: declName(f, fd)}
			p.ByKey[funcKey(n.Obj)] = n
			p.Nodes = append(p.Nodes, n)
		}
	}
	// Literals, attributed to their lexically enclosing node.
	for _, f := range p.Files {
		for _, d := range f.Ast.Decls {
			encl := (*FuncNode)(nil)
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, _ := f.Info.Defs[fd.Name].(*types.Func); obj != nil {
					encl = p.ByKey[funcKey(obj)]
				}
			}
			p.collectLits(f, d, encl)
		}
	}

	// Pass 2: resolve the edges of every node.
	for _, n := range p.Nodes {
		p.resolveEdges(n)
	}
	return p
}

// collectLits walks root creating nodes for function literals. Literals
// nest, so the enclosing node is tracked through the descent.
func (p *Program) collectLits(f *File, root ast.Node, encl *FuncNode) {
	ast.Inspect(root, func(c ast.Node) bool {
		lit, ok := c.(*ast.FuncLit)
		if !ok {
			return true
		}
		ln := &FuncNode{File: f, Lit: lit, Enclosing: encl}
		p.Nodes = append(p.Nodes, ln)
		p.collectLits(f, lit.Body, ln)
		return false // children handled by the recursive walk
	})
}

// declName renders a declared function's display name.
func declName(f *File, fd *ast.FuncDecl) string {
	pkg := f.Pkg.Name()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	for {
		switch t := recv.(type) {
		case *ast.StarExpr:
			recv = t.X
			continue
		case *ast.IndexExpr:
			recv = t.X
			continue
		case *ast.IndexListExpr:
			recv = t.X
			continue
		}
		break
	}
	if id, ok := recv.(*ast.Ident); ok {
		return pkg + ".(" + id.Name + ")." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}

// resolveEdges fills n.Edges with the static calls in n's own body; nested
// literals are their own nodes and are not descended into.
func (p *Program) resolveEdges(n *FuncNode) {
	ast.Inspect(n.Body(), func(c ast.Node) bool {
		if lit, ok := c.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(n.File, call)
		if fn == nil {
			return true
		}
		if callee := p.ByKey[funcKey(fn)]; callee != nil && callee != n {
			n.Edges = append(n.Edges, Edge{Call: call, Callee: callee})
		}
		return true
	})
}

// calleeFunc resolves the called function object, if the callee is named.
func calleeFunc(f *File, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := f.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := f.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// derefNamed unwraps a pointer and reports the named type underneath.
func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
