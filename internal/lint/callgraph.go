package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program view the call-graph rules run on: a
// type-informed call graph over every non-test file Load returned. The
// graph is deliberately module-local — edges point only at functions whose
// bodies we loaded — and conservatively widened at the three places Go
// hides the callee:
//
//   - function literals: every literal gets an edge from its lexically
//     enclosing function, since a closure built in f runs (if it runs at
//     all) in f's dynamic extent or escapes through f;
//   - named functions used as values (passed as arguments, stored in
//     struct fields or package variables): a call through a func-typed
//     field or package variable is widened to every address-taken named
//     function with a loosely matching signature (type parameters act as
//     wildcards, so a generic op table instantiated at float32/float64
//     matches its generic implementations);
//   - interface method calls: widened to the same-named method on every
//     in-module named type that implements the interface.
//
// Calls through func-typed parameters and local variables are NOT widened:
// the callback that reaches such a call site got its caller→literal or
// caller→named-function edge where it was passed in, which is the extent
// that matters for the hot-path rule.

// Edge is one resolved call from a function body to an in-module function.
type Edge struct {
	// Site is the position of the call (or literal definition) that
	// produced the edge, inside the caller's body.
	Site token.Pos
	// Callee is the target node.
	Callee *FuncNode
	// Widened marks edges produced by indirect-call or interface
	// widening rather than a direct static call.
	Widened bool
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
	// Name is a stable human-readable name: "pkg.Func", "pkg.(T).Method",
	// or "pkg.Outer.func@line" for literals.
	Name string
	// Enclosing is the function node a literal is defined inside; nil
	// for declarations.
	Enclosing *FuncNode
	// Edges are the resolved outgoing calls, ordered by call site.
	Edges []Edge
	// HotRoot reports a //sate:hotpath annotation on the declaration's
	// doc comment; HotNote carries the annotation's trailing text.
	HotRoot bool
	HotNote string
}

// Body returns the function's body block (never nil for nodes in a Program).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the position of the func keyword.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
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
	// ByLit maps a function literal to its node.
	ByLit map[*ast.FuncLit]*FuncNode

	// supp gives program-level analyzers access to the per-file
	// suppression tables so a directive can opt out a whole extent.
	supp map[*File]*suppTable
}

// Suppressed reports (and records) whether a directive suppresses rule at
// the given line of f, using the same two-line window as line findings.
func (p *Program) Suppressed(f *File, rule string, line int) bool {
	t := p.supp[f]
	if t == nil {
		return false
	}
	return t.suppressed(rule, line)
}

// hotpathDirective is the annotation that marks a function as a hot-path
// root for the hotpath-no-alloc rule.
const hotpathDirective = "//sate:hotpath"

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

// namedKey renders a named type's stable cross-package identity.
func namedKey(n *types.Named) string {
	obj := n.Origin().Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// BuildProgram constructs the call graph over the non-test files.
func BuildProgram(files []*File) *Program {
	p := &Program{
		ByKey: map[string]*FuncNode{},
		ByLit: map[*ast.FuncLit]*FuncNode{},
	}
	for _, f := range files {
		if !f.IsTest {
			p.Files = append(p.Files, f)
		}
	}

	// Pass 1: create a node per function declaration and per literal.
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
			n.HotRoot, n.HotNote = hotAnnotation(fd)
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

	// Pass 2: the widening sets — address-taken named functions, and
	// in-module concrete method implementations per method name.
	taken := p.addressTaken()
	methods := p.methodImpls()

	// Pass 3: resolve the edges of every node.
	for _, n := range p.Nodes {
		p.resolveEdges(n, taken, methods)
	}
	return p
}

// collectLits walks root creating nodes for function literals. Literals
// nest, so the enclosing node is tracked through the descent.
func (p *Program) collectLits(f *File, root ast.Node, encl *FuncNode) {
	var walk func(n ast.Node, encl *FuncNode)
	walk = func(n ast.Node, encl *FuncNode) {
		ast.Inspect(n, func(c ast.Node) bool {
			lit, ok := c.(*ast.FuncLit)
			if !ok {
				return true
			}
			pos := f.Fset.Position(lit.Pos())
			name := "func@" + itoa(pos.Line)
			if encl != nil {
				name = encl.Name + "." + name
			} else {
				name = f.Pkg.Name() + "." + name
			}
			ln := &FuncNode{File: f, Lit: lit, Name: name, Enclosing: encl}
			p.ByLit[lit] = ln
			p.Nodes = append(p.Nodes, ln)
			walk(lit.Body, ln)
			return false // children handled by the recursive walk
		})
	}
	walk(root, encl)
}

// itoa is a tiny strconv.Itoa stand-in to keep the import list short.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
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

// hotAnnotation scans a declaration's doc comment for //sate:hotpath.
func hotAnnotation(fd *ast.FuncDecl) (bool, string) {
	if fd.Doc == nil {
		return false, ""
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, hotpathDirective)
		if !ok {
			continue
		}
		if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

// addressTaken returns the declared in-module functions whose value is used
// outside a call position: stored, passed, or compared. These are the
// candidates a widened indirect call can reach.
func (p *Program) addressTaken() []*FuncNode {
	set := map[*FuncNode]bool{}
	for _, f := range p.Files {
		// Call positions to exclude: the Fun of each CallExpr.
		funPos := map[ast.Expr]bool{}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				funPos[call.Fun] = true
				// A selector's inner parts are part of the callee
				// expression, not a value use.
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					funPos[sel.Sel] = true
				}
			}
			return true
		})
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || funPos[id] {
				return true
			}
			fn, ok := f.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if node := p.ByKey[funcKey(fn)]; node != nil {
				set[node] = true
			}
			return true
		})
	}
	var out []*FuncNode
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// methodImpls indexes every in-module method node by method name, for
// interface-call widening.
func (p *Program) methodImpls() map[string][]*FuncNode {
	out := map[string][]*FuncNode{}
	for _, n := range p.Nodes {
		if n.Decl == nil || n.Decl.Recv == nil {
			continue
		}
		out[n.Decl.Name.Name] = append(out[n.Decl.Name.Name], n)
	}
	return out
}

// resolveEdges fills n.Edges: static calls, literal containment, named
// functions passed as values at call sites, widened field/package-variable
// indirect calls, and widened interface calls.
func (p *Program) resolveEdges(n *FuncNode, taken []*FuncNode, methods map[string][]*FuncNode) {
	f := n.File
	add := func(site token.Pos, callee *FuncNode, widened bool) {
		if callee == nil || callee == n {
			return
		}
		n.Edges = append(n.Edges, Edge{Site: site, Callee: callee, Widened: widened})
	}
	// Walk the node's own body, stopping at nested literals (they are
	// their own nodes) but adding a containment edge to each.
	inExtent := func(visit func(ast.Node) bool) {
		ast.Inspect(n.Body(), func(c ast.Node) bool {
			if lit, ok := c.(*ast.FuncLit); ok && c != ast.Node(n.Lit) {
				add(lit.Pos(), p.ByLit[lit], false)
				return false
			}
			return visit(c)
		})
	}
	inExtent(func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Named functions passed as argument values: the callee (in
		// or out of module) may invoke them in our dynamic extent.
		for _, arg := range call.Args {
			if fn := usedFunc(f, arg); fn != nil {
				add(arg.Pos(), p.ByKey[funcKey(fn)], false)
			}
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			switch obj := f.Info.Uses[fun].(type) {
			case *types.Func:
				add(call.Pos(), p.ByKey[funcKey(obj)], false)
			case *types.Var:
				// Indirect call through a variable. Parameters and
				// locals were covered where the value was passed in;
				// package variables are widened.
				if obj.Parent() == f.Pkg.Scope() {
					p.widen(n, call, obj.Type(), taken)
				}
			}
		case *ast.SelectorExpr:
			switch obj := f.Info.Uses[fun.Sel].(type) {
			case *types.Func:
				sig, _ := obj.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil && isInterfaceRecv(sig) {
					// Interface method call: widen to in-module
					// implementations.
					p.widenInterface(n, call, fun.Sel.Name, obj, methods)
				} else {
					add(call.Pos(), p.ByKey[funcKey(obj)], false)
				}
			case *types.Var:
				// Call through a func-typed struct field or
				// package-level variable.
				if obj.IsField() || obj.Parent() == f.Pkg.Scope() ||
					(obj.Pkg() != nil && obj.Pkg() != f.Pkg) {
					p.widen(n, call, obj.Type(), taken)
				}
			}
		}
		return true
	})
	sort.Slice(n.Edges, func(i, j int) bool { return n.Edges[i].Site < n.Edges[j].Site })
}

// usedFunc returns the declared function named directly by expr (an ident
// or selector used as a value), or nil.
func usedFunc(f *File, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		fn, _ := f.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := f.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isInterfaceRecv reports whether a method signature's receiver is an
// interface (i.e. the call site dispatches dynamically).
func isInterfaceRecv(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// widen adds edges for an indirect call through a func-typed field or
// package variable: every address-taken named function whose signature
// loosely matches the callee type is a candidate target.
func (p *Program) widen(n *FuncNode, call *ast.CallExpr, t types.Type, taken []*FuncNode) {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for _, cand := range taken {
		cs := cand.Sig()
		if cs == nil || !looseSigEq(sig, cs) {
			continue
		}
		n.Edges = append(n.Edges, Edge{Site: call.Pos(), Callee: cand, Widened: true})
	}
}

// widenInterface adds edges for an interface method call: every in-module
// named type implementing the interface contributes its same-named method.
func (p *Program) widenInterface(n *FuncNode, call *ast.CallExpr, name string, decl *types.Func, methods map[string][]*FuncNode) {
	iface, ok := decl.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, cand := range methods[name] {
		if cand.Obj == nil {
			continue
		}
		recv := cand.Obj.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if looseImplements(recv.Type(), iface) {
			n.Edges = append(n.Edges, Edge{Site: call.Pos(), Callee: cand, Widened: true})
		}
	}
}

// looseImplements is a cross-package-safe types.Implements: each interface
// method must exist on t with a loosely matching signature. Structural
// comparison with namedKey identity sidesteps the fact that independently
// type-checked packages never share type objects.
func looseImplements(t types.Type, iface *types.Interface) bool {
	if iface.NumMethods() == 0 {
		return false // any: widening to every type would drown the graph
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		ms, ok := fn.Type().(*types.Signature)
		if !ok || !looseSigEq(ms, m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// derefNamed unwraps a pointer and reports the named type underneath.
func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// looseSigEq compares two signatures structurally, treating any type
// parameter as a wildcard, so a generic implementation matches the
// instantiated func type a dispatch table stores it under.
func looseSigEq(a, b *types.Signature) bool {
	return looseTupleEq(a.Params(), b.Params()) &&
		looseTupleEq(a.Results(), b.Results()) &&
		a.Variadic() == b.Variadic()
}

func looseTupleEq(a, b *types.Tuple) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !looseTypeEq(a.At(i).Type(), b.At(i).Type()) {
			return false
		}
	}
	return true
}

// looseTypeEq is structural type equality with type-parameter wildcards.
// Named types match by origin object identity, so Tensor[float32] matches
// Tensor[T] but never an unrelated named type.
func looseTypeEq(a, b types.Type) bool {
	if _, ok := a.(*types.TypeParam); ok {
		return true
	}
	if _, ok := b.(*types.TypeParam); ok {
		return true
	}
	switch at := a.(type) {
	case *types.Named:
		bt, ok := b.(*types.Named)
		return ok && namedKey(at) == namedKey(bt)
	case *types.Pointer:
		bt, ok := b.(*types.Pointer)
		return ok && looseTypeEq(at.Elem(), bt.Elem())
	case *types.Slice:
		bt, ok := b.(*types.Slice)
		return ok && looseTypeEq(at.Elem(), bt.Elem())
	case *types.Array:
		bt, ok := b.(*types.Array)
		return ok && at.Len() == bt.Len() && looseTypeEq(at.Elem(), bt.Elem())
	case *types.Map:
		bt, ok := b.(*types.Map)
		return ok && looseTypeEq(at.Key(), bt.Key()) && looseTypeEq(at.Elem(), bt.Elem())
	case *types.Chan:
		bt, ok := b.(*types.Chan)
		return ok && at.Dir() == bt.Dir() && looseTypeEq(at.Elem(), bt.Elem())
	case *types.Signature:
		bt, ok := b.(*types.Signature)
		return ok && looseSigEq(at, bt)
	case *types.Basic:
		bt, ok := b.(*types.Basic)
		return ok && at.Kind() == bt.Kind()
	case *types.Interface, *types.Struct:
		return types.Identical(a, b)
	}
	return types.Identical(a, b)
}
