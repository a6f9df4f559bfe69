// Package lint is the project's static-analysis suite. It enforces the
// determinism and concurrency invariants the SaTE reproduction depends on —
// all parallelism goes through the internal/par pool, randomness flows
// through explicit seeded *rand.Rand values, and simulated-time packages
// never read the wall clock — plus general hygiene rules (discarded errors,
// float equality, stray prints in library code, dtype-pinning conversions).
// Every rule is per-file: it looks at one type-checked AST. TestSelfLint
// runs the suite over the module inside `go test ./...`.
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

// analyzer is one named per-file rule.
type analyzer struct {
	name string
	run  func(f *File, report func(n ast.Node, format string, args ...any))
}

// directiveRule is the pseudo-rule under which malformed //lint:ignore
// directives are reported.
const directiveRule = "lint-directive"

// unusedRule is the pseudo-rule under which stale suppressions are
// reported: a //lint:ignore directive that suppressed nothing, or that names
// a rule that does not exist.
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

// Run applies every rule to every file and returns the unsuppressed
// findings sorted by position.
func Run(files []*File) []Finding {
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

	for _, f := range files {
		for _, a := range analyzers {
			a.run(f, reporter(f, a.name))
		}
	}

	// Stale-suppression pass: a directive rule that suppressed nothing is a
	// stale exemption; a rule name no analyzer carries is a typo.
	known := knownRules()
	for _, f := range files {
		for _, d := range tables[f].list {
			for _, r := range d.rules {
				msg := fmt.Sprintf("suppression of %s matches no finding; remove the stale directive", r)
				if !known[r] {
					msg = fmt.Sprintf("directive names unknown rule %q", r)
				} else if d.used[r] {
					continue
				}
				out = append(out, Finding{Pos: d.pos, Rule: unusedRule, Msg: msg})
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
	for _, a := range analyzers {
		known[a.name] = true
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
