package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// analyzers is the full rule suite in stable order.
var analyzers = []*analyzer{
	noNakedGoroutine,
	seededRandOnly,
	noWallclockInSim,
	noFloatEquality,
	checkedErrors,
	noFmtPrintInLib,
	noDtypeLiteral,
}

// poolPath is the one package allowed to spawn goroutines: every other
// package must route parallelism through its deterministic worker pool.
const poolPath = "internal/par"

// wallclockDeny lists the deterministic packages where reading the wall
// clock breaks reproducibility: the simulated-time pipeline (orbit,
// topology, traffic, te, lp, gnn, autodiff, paths, graphembed), the solver
// and rule layers (solve, rules, ruledist), the solvers themselves (core,
// shard), internal/sim — the few sites in sim that time the *solver* (where
// wall-clock latency is the measurement itself) carry explicit reasoned
// //lint:ignore directives instead of a package-wide exemption — and
// internal/pktsim, the discrete-event packet engine, whose entire clock is
// virtual (the head of its event queue).
// baselines, experiments, controller, cmd/ and the root package remain
// exempt: there, wall-clock timing is the deliverable (figure tables,
// production control loop pacing).
var wallclockDeny = map[string]bool{
	"internal/orbit":      true,
	"internal/topology":   true,
	"internal/traffic":    true,
	"internal/te":         true,
	"internal/lp":         true,
	"internal/gnn":        true,
	"internal/autodiff":   true,
	"internal/paths":      true,
	"internal/graphembed": true,
	"internal/solve":      true,
	"internal/rules":      true,
	"internal/core":       true,
	"internal/shard":      true,
	"internal/sim":        true,
	"internal/ruledist":   true,
	"internal/pktsim":     true,
}

// globalRand lists the math/rand top-level functions that draw from the
// shared global source. Constructors (New, NewSource, NewZipf) are fine:
// they are how seeded *rand.Rand values get made.
var globalRand = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true,
	"Int": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Intn": true,
	"NormFloat64": true, "Perm": true, "Read": true,
	"Seed": true, "Shuffle": true,
	"Uint32": true, "Uint64": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

// importedCall reports whether call is pkg.Name(...) where pkg is an import
// of one of the given paths, returning the selected name.
func importedCall(f *File, call *ast.CallExpr, paths ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := f.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	for _, p := range paths {
		if pn.Imported().Path() == p {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// noNakedGoroutine: go statements are forbidden outside internal/par and
// _test.go files; all parallelism flows through the deterministic worker pool.
var noNakedGoroutine = &analyzer{
	name: "no-naked-goroutine",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.IsTest || f.RelPath == poolPath {
			return
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g, "go statement outside %s; route parallelism through the worker pool", poolPath)
			}
			return true
		})
	},
}

// seededRandOnly: top-level math/rand functions draw from the unseeded
// global source; library code must thread an explicit *rand.Rand.
var seededRandOnly = &analyzer{
	name: "seeded-rand-only",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.IsTest {
			return
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := importedCall(f, call, "math/rand", "math/rand/v2"); ok && globalRand[name] {
				report(call, "global rand.%s call; thread an explicit seeded *rand.Rand instead", name)
			}
			return true
		})
	},
}

// noWallclockInSim: time.Now/time.Since are forbidden in the simulated-time
// packages of wallclockDeny (orbit, topology, traffic, te, lp, gnn, autodiff,
// paths, graphembed, solve, rules, core, shard, sim, ruledist, pktsim); time
// must arrive as a parameter.
var noWallclockInSim = &analyzer{
	name: "no-wallclock-in-sim",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.IsTest || !wallclockDeny[f.RelPath] {
			return
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := importedCall(f, call, "time"); ok && (name == "Now" || name == "Since") {
				report(call, "time.%s in simulated-time package %s; pass time in as a parameter", name, f.RelPath)
			}
			return true
		})
	},
}

// isFloat reports whether t's underlying type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// noFloatEquality: ==/!= between two computed float expressions is almost
// always a bug; comparisons against constants (exact sentinels like 0) are
// allowed, as are the serial-vs-parallel equivalence tests where bitwise
// equality is the point.
var noFloatEquality = &analyzer{
	name: "no-float-equality",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.RelPath == poolPath || strings.HasSuffix(filepath.Base(f.Name), "parallel_test.go") {
			return
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			x, y := f.Info.Types[be.X], f.Info.Types[be.Y]
			if x.Type == nil || y.Type == nil || !isFloat(x.Type) || !isFloat(y.Type) {
				return true
			}
			if x.Value != nil || y.Value != nil {
				return true // comparison against an exact constant sentinel
			}
			report(be, "%s on float operands; compare with a tolerance or math.Abs", be.Op)
			return true
		})
	},
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether t (a call's result type) is or contains error.
func returnsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errorType)
}

// exemptWriter reports whether writing to e cannot produce an actionable
// error: os.Stdout/os.Stderr (nothing to do if the process's own stdio is
// broken), and the in-memory buffers strings.Builder and bytes.Buffer
// (documented to never return a non-nil error).
func exemptWriter(f *File, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := f.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" &&
				(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
				return true
			}
		}
	}
	switch typeString(f.Info.TypeOf(e)) {
	case "*strings.Builder", "strings.Builder", "*bytes.Buffer", "bytes.Buffer":
		return true
	}
	return false
}

// typeString renders a type, or "" for nil.
func typeString(t types.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// errExempt reports whether a discarded error from this call is exempt by
// design: prints to process stdio, writes into never-failing in-memory
// buffers, and fmt.Fprint* into a *bufio.Writer, whose error is sticky and
// surfaced by the mandatory Flush at the end (Flush itself is not exempt).
func errExempt(f *File, call *ast.CallExpr) bool {
	if name, ok := importedCall(f, call, "fmt"); ok {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 {
				if exemptWriter(f, call.Args[0]) || typeString(f.Info.TypeOf(call.Args[0])) == "*bufio.Writer" {
					return true
				}
			}
		}
		return false
	}
	// Write methods on the in-memory buffers.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return exemptWriter(f, sel.X)
		}
	}
	return false
}

// checkedErrors: a call whose returned error is silently discarded as a bare
// statement must handle it or assign it away explicitly (_ =); defers, stdio
// prints, in-memory buffer writes, and sticky-error bufio prints are exempt.
var checkedErrors = &analyzer{
	name: "checked-errors",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.IsTest {
			return
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if returnsError(f.Info.Types[call].Type) && !errExempt(f, call) {
				report(stmt, "returned error is discarded; handle it or assign to _ explicitly")
			}
			return true
		})
	},
}

// floatConstrained reports whether the type parameter's constraint includes
// a floating-point term (e.g. the autodiff Float = float32 | float64 set).
func floatConstrained(tp *types.TypeParam) bool {
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				if isFloat(e.Term(j).Type()) {
					return true
				}
			}
		default:
			if isFloat(e) {
				return true
			}
		}
	}
	return false
}

// noDtypeLiteral: a float64(x)/float32(x) conversion of a float-constrained
// type parameter pins generic kernel code to one dtype and silently defeats
// the float32 inference path; route scalar math through the sanctioned
// helpers (autodiff's f64/ToFloat64) instead.
var noDtypeLiteral = &analyzer{
	name: "no-dtype-literal",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.IsTest {
			return // equivalence tests widen T deliberately
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := f.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true // a call, not a conversion
			}
			b, ok := tv.Type.(*types.Basic)
			if !ok || b.Info()&types.IsFloat == 0 {
				return true
			}
			tp, ok := f.Info.TypeOf(call.Args[0]).(*types.TypeParam)
			if !ok || !floatConstrained(tp) {
				return true
			}
			report(call, "%s(...) of type parameter %s pins the dtype in generic code; use the sanctioned scalar helpers", b.Name(), tp.Obj().Name())
			return true
		})
	},
}

// noFmtPrintInLib: fmt.Print*/println write to process stdout/stderr from
// library code; take an io.Writer instead (cmd/ and examples/ are exempt).
var noFmtPrintInLib = &analyzer{
	name: "no-fmt-print-in-lib",
	run: func(f *File, report func(ast.Node, string, ...any)) {
		if f.IsTest {
			return
		}
		// Library scope: the module root package and everything under
		// internal/. Binaries (cmd/, examples/) own their stdout.
		if f.RelPath != "" && !strings.HasPrefix(f.RelPath, "internal/") {
			return
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := importedCall(f, call, "fmt"); ok &&
				(name == "Print" || name == "Printf" || name == "Println") {
				report(call, "fmt.%s in library package %s; write to an io.Writer instead", name, f.ImportPath)
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := f.Info.Uses[id].(*types.Builtin); ok &&
					(b.Name() == "print" || b.Name() == "println") {
					report(call, "builtin %s in library package %s; write to an io.Writer instead", b.Name(), f.ImportPath)
				}
			}
			return true
		})
	},
}
