// Command satelint runs the project's static-analysis suite over Go
// packages and reports violations of the repo's determinism and concurrency
// invariants as "file:line:col: [rule] message" diagnostics.
//
// Usage:
//
//	satelint ./...                      # run every rule
//	satelint -only seeded-rand-only ./internal/...
//	satelint -skip no-float-equality ./...
//	satelint -list                      # describe the rules
//	satelint -json ./...                # machine-readable findings
//
// Suppress an individual finding with a directive comment on the same line
// or the line directly above it (the reason is mandatory):
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sate/internal/lint"
)

// jsonFinding is the -json output shape for one diagnostic.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func main() {
	var (
		list     = flag.Bool("list", false, "list the available rules and exit")
		only     = flag.String("only", "", "comma-separated rules to run (default: all)")
		skip     = flag.String("skip", "", "comma-separated rules to skip")
		dir      = flag.String("dir", ".", "module directory to lint")
		skipTest = flag.Bool("no-tests", false, "do not analyze _test.go files")
		asJSON   = flag.Bool("json", false, "emit findings as a JSON array")
	)
	flag.Parse()

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := lint.Select(all, *only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	files, err := lint.Load(lint.Options{
		Dir:       *dir,
		Patterns:  flag.Args(),
		SkipTests: *skipTest,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	findings := lint.Run(files, analyzers)

	if *asJSON {
		out := []jsonFinding{}
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: relToCwd(f.Pos.Filename),
				Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			f.Pos.Filename = relToCwd(f.Pos.Filename)
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "satelint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// relToCwd renders a path relative to the working directory when possible:
// shorter, and clickable in most terminals.
func relToCwd(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
