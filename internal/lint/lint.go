// Package lint implements satelint, the project's static-analysis suite.
// It enforces the determinism and concurrency invariants the SaTE
// reproduction depends on — all parallelism goes through the internal/par
// pool, randomness flows through explicit seeded *rand.Rand values, and
// simulated-time packages never read the wall clock — plus general hygiene
// rules (discarded errors, float equality, stray prints in library code).
//
// Beyond the per-file AST checks — which include map-order-determinism:
// map iteration in deterministic packages must not accumulate
// order-dependent state — the suite builds a whole-program direct-call
// graph (see callgraph.go) for ctx-propagation: a context.Context received
// by a function must not be dropped on its way down a call chain.
//
// The suite is built purely on the standard library (go/ast, go/parser,
// go/token, go/types); package resolution shells out to the go command for
// export data instead of depending on golang.org/x/tools.
//
// A finding can be suppressed with a directive comment on the same line or
// the line directly above it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// A suppression that no longer matches any finding is reported by the
// unused-suppression pseudo-rule so stale exemptions cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the diagnostic as "file:line:col: [rule] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one named, individually toggleable rule. Per-file rules set
// run; whole-program rules set runProgram and receive the call graph.
// A pseudo-rule (unused-suppression) may set neither: its findings are
// produced by Run itself.
type Analyzer struct {
	Name       string
	Doc        string
	run        func(f *File, report func(n ast.Node, format string, args ...any))
	runProgram func(p *Program, report func(f *File, n ast.Node, format string, args ...any))
}

// directiveRule is the pseudo-rule under which malformed //lint:ignore
// directives are reported.
const directiveRule = "lint-directive"

// unusedRule is the pseudo-rule under which stale suppressions are
// reported; it is registered as a toggleable analyzer in Analyzers.
const unusedRule = "unused-suppression"

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos   token.Position
	rules []string        // rule names, declaration order
	used  map[string]bool // rules that actually suppressed something
}

// suppTable holds a file's parsed directives with usage tracking.
type suppTable struct {
	byLine map[int][]*directive
	list   []*directive
}

// suppressed reports whether rule is suppressed at line (a directive
// covers its own line and the line below it), marking the matching
// directive as used.
func (t *suppTable) suppressed(rule string, line int) bool {
	for _, l := range [2]int{line, line - 1} {
		for _, d := range t.byLine[l] {
			for _, r := range d.rules {
				if r == rule {
					d.used[rule] = true
					return true
				}
			}
		}
	}
	return false
}

// Run applies the analyzers to every file and returns the unsuppressed
// findings sorted by position.
func Run(files []*File, analyzers []*Analyzer) []Finding {
	var out []Finding
	tables := map[*File]*suppTable{}
	for _, f := range files {
		t, bad := buildSuppTable(f)
		tables[f] = t
		out = append(out, bad...)
	}

	reporter := func(f *File, rule string) func(n ast.Node, format string, args ...any) {
		return func(n ast.Node, format string, args ...any) {
			pos := f.Fset.Position(n.Pos())
			if tables[f].suppressed(rule, pos.Line) {
				return
			}
			out = append(out, Finding{Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
		}
	}

	active := map[string]bool{directiveRule: true}
	needProgram := false
	for _, a := range analyzers {
		active[a.Name] = true
		if a.runProgram != nil {
			needProgram = true
		}
	}
	for _, f := range files {
		for _, a := range analyzers {
			if a.run != nil {
				a.run(f, reporter(f, a.Name))
			}
		}
	}
	if needProgram {
		prog := BuildProgram(files)
		for _, a := range analyzers {
			if a.runProgram != nil {
				rule := a.Name
				a.runProgram(prog, func(f *File, n ast.Node, format string, args ...any) {
					reporter(f, rule)(n, format, args...)
				})
			}
		}
	}

	// Stale-suppression pass: a directive rule that is active in this
	// run but suppressed nothing is a stale exemption; a rule name no
	// analyzer has ever carried is a typo. Rules that exist but were
	// deselected this run are left alone — we cannot judge them.
	if active[unusedRule] {
		known := knownRules()
		for _, f := range files {
			for _, d := range tables[f].list {
				for _, r := range d.rules {
					if !known[r] {
						out = append(out, Finding{
							Pos:  d.pos,
							Rule: unusedRule,
							Msg:  fmt.Sprintf("directive names unknown rule %q", r),
						})
						continue
					}
					if active[r] && !d.used[r] {
						out = append(out, Finding{
							Pos:  d.pos,
							Rule: unusedRule,
							Msg:  fmt.Sprintf("suppression of %s matches no finding; remove the stale directive", r),
						})
					}
				}
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// knownRules returns every rule name any analyzer carries, plus the
// pseudo-rules, for typo detection in directives.
func knownRules() map[string]bool {
	known := map[string]bool{directiveRule: true, unusedRule: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	return known
}

// buildSuppTable scans a file's comments for //lint:ignore directives,
// returning the parsed table plus findings for malformed directives.
func buildSuppTable(f *File) (*suppTable, []Finding) {
	t := &suppTable{byLine: map[int][]*directive{}}
	var bad []Finding
	for _, cg := range f.Ast.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := f.Fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) < 2 {
				bad = append(bad, Finding{
					Pos:  pos,
					Rule: directiveRule,
					Msg:  "malformed directive: want //lint:ignore <rule>[,<rule>] <reason>",
				})
				continue
			}
			d := &directive{pos: pos, rules: strings.Split(fields[0], ","), used: map[string]bool{}}
			t.byLine[pos.Line] = append(t.byLine[pos.Line], d)
			t.list = append(t.list, d)
		}
	}
	return t, bad
}

// Select returns the analyzers chosen by the only/skip lists (comma- or
// space-separated rule names); an empty only-list means all. Unknown names
// are an error so typos cannot silently disable a gate.
func Select(all []*Analyzer, only, skip string) ([]*Analyzer, error) {
	names := map[string]*Analyzer{}
	for _, a := range all {
		names[a.Name] = a
	}
	parse := func(s string) (map[string]bool, error) {
		set := map[string]bool{}
		for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
			if names[f] == nil {
				return nil, fmt.Errorf("lint: unknown rule %q", f)
			}
			set[f] = true
		}
		return set, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
