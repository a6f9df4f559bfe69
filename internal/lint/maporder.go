package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// map-order-determinism: in the deterministic packages (the same set the
// wall-clock rule protects, plus the solver/rules/core additions), a
// `for range` over a map is flagged when its body does something the
// iteration order leaks into: accumulating floats with compound
// assignment, appending to an outer slice, or emitting output. The
// sanctioned idiom — collect the keys, sort them, then iterate — is
// recognized: an append is exempt when a sort.*/slices.* call mentioning
// the destination follows the loop in the same block, and keyed writes
// (out[k] = ..., out[k] += ...) are exempt because they land in the same
// place regardless of visit order.

var mapOrderDeterminism = &Analyzer{
	Name: "map-order-determinism",
	Doc: "in deterministic packages, ranging over a map while accumulating " +
		"floats, appending to an outer slice, or emitting output depends on " +
		"Go's randomized iteration order; collect and sort the keys first",
	run: func(f *File, report func(n ast.Node, format string, args ...any)) {
		if f.IsTest || !deterministicPkg[f.RelPath] {
			return
		}
		for _, d := range f.Ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanStmtList(f, fd.Body.List, report)
		}
	},
}

// scanStmtList walks one statement list, analyzing map ranges that are
// direct members (so the follows-the-loop sort exemption sees the right
// sibling statements) and recursing into nested lists.
func scanStmtList(f *File, list []ast.Stmt, report func(n ast.Node, format string, args ...any)) {
	for i, st := range list {
		rs := st
		if lbl, ok := st.(*ast.LabeledStmt); ok {
			rs = lbl.Stmt
		}
		if r, ok := rs.(*ast.RangeStmt); ok {
			if _, isMap := typeUnder(f.Info.TypeOf(r.X)).(*types.Map); isMap {
				checkMapRange(f, r, list[i+1:], report)
			}
			scanStmtList(f, r.Body.List, report)
			continue
		}
		ast.Inspect(st, func(c ast.Node) bool {
			switch x := c.(type) {
			case *ast.BlockStmt:
				scanStmtList(f, x.List, report)
				return false
			case *ast.CaseClause:
				scanStmtList(f, x.Body, report)
				return false
			case *ast.CommClause:
				scanStmtList(f, x.Body, report)
				return false
			case *ast.FuncLit:
				scanStmtList(f, x.Body.List, report)
				return false
			}
			return true
		})
	}
}

// checkMapRange inspects one map-range body for order-dependent effects.
func checkMapRange(f *File, r *ast.RangeStmt, following []ast.Stmt, report func(n ast.Node, format string, args ...any)) {
	rangeVars := rangeVarObjs(f, r)
	ast.Inspect(r.Body, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				lhs := ast.Unparen(x.Lhs[0])
				if isFloatExpr(f, lhs) && !keyedByRangeVar(f, lhs, rangeVars) {
					report(x, "float accumulation inside map range depends on iteration order; sort the keys first")
				}
			case token.ASSIGN, token.DEFINE:
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					id, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if !ok {
						continue
					}
					if b, ok := f.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
						continue
					}
					if obj := assignedObj(f, lhs); obj != nil && obj.Pos() < r.Pos() && !sortedAfter(f, obj, following) {
						report(x, "append inside map range builds an order-dependent slice; sort the keys first or sort the result")
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := importedCall(f, x, "fmt"); ok {
				switch name {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					report(x, "output emitted inside map range appears in random order; sort the keys first")
				}
			} else if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
					if _, isPkg := f.Info.Uses[selRootIdent(sel)].(*types.PkgName); !isPkg {
						report(x, "output written inside map range appears in random order; sort the keys first")
					}
				}
			}
		}
		return true
	})
}

// selRootIdent returns the leftmost identifier of a selector chain.
func selRootIdent(sel *ast.SelectorExpr) *ast.Ident {
	e := ast.Unparen(sel.X)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.Ident:
			return x
		default:
			return sel.Sel // no ident root; Uses lookup will miss
		}
	}
}

// rangeVarObjs returns the objects bound by the range clause.
func rangeVarObjs(f *File, r *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := f.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := f.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// keyedByRangeVar reports whether lhs is an index expression whose index
// mentions a range variable: out[k] += v writes to the same slot whatever
// the visit order, so it is order-independent.
func keyedByRangeVar(f *File, lhs ast.Expr, rangeVars map[types.Object]bool) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(ix.Index, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && rangeVars[f.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// assignedObj resolves the variable an append result is stored into.
func assignedObj(f *File, lhs ast.Expr) types.Object {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if obj := f.Info.Uses[id]; obj != nil {
			return obj
		}
		return f.Info.Defs[id]
	}
	return nil
}

// sortedAfter reports whether a sorting call mentioning obj appears in the
// statements following the range loop — the sanctioned collect-then-sort
// idiom. A sorting call is anything from sort/slices, or a function whose
// name starts with "sort"/"Sort" (in-module helpers like sortLinks).
func sortedAfter(f *File, obj types.Object, following []ast.Stmt) bool {
	for _, st := range following {
		found := false
		ast.Inspect(st, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if _, ok := importedCall(f, call, "sort", "slices"); !ok && !namedSortCall(f, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && f.Info.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// namedSortCall reports whether the callee is a function or method whose
// name marks it as a sorting helper.
func namedSortCall(f *File, call *ast.CallExpr) bool {
	fn := calleeFunc(f, call)
	return fn != nil && (strings.HasPrefix(fn.Name(), "sort") || strings.HasPrefix(fn.Name(), "Sort"))
}

// isFloatExpr reports whether the expression's type is floating point
// (including float-constrained type parameters in generic code).
func isFloatExpr(f *File, e ast.Expr) bool {
	t := f.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if tp, ok := t.(*types.TypeParam); ok {
		return floatConstrained(tp)
	}
	return isFloat(t)
}

// typeUnder is Underlying with nil tolerance.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
