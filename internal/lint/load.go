package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// File is one parsed, type-checked source file plus the package context the
// analyzers need.
type File struct {
	Fset *token.FileSet
	Ast  *ast.File
	// Name is the absolute path of the file.
	Name string
	// IsTest reports whether the file name ends in _test.go.
	IsTest bool
	Pkg    *types.Package
	Info   *types.Info
	// ImportPath is the package's import path with any test-variant
	// suffix ("pkg [pkg.test]") stripped.
	ImportPath string
	// RelPath is ImportPath relative to the module root: "" for the root
	// package, "internal/par" for sate/internal/par, and so on. Rules
	// that key on package location use RelPath so they work in any
	// module (including the test fixtures).
	RelPath string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	ForTest    string
}

// cleanPath strips the test-variant suffix from a `go list -test` import
// path: "sate/internal/gnn [sate/internal/gnn.test]" -> "sate/internal/gnn".
func cleanPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

// Load resolves every package of the module rooted at dir (`./...`, test
// files included) with the go command, type-checks each from source
// (dependencies are loaded from compiler export data, so only the module's
// packages are re-checked), and returns the files to analyze. An empty dir
// means the current directory.
//
// The heavy lifting is delegated to `go list -deps -export`, which compiles
// dependency export data into the build cache; the linter itself depends
// only on the standard library.
func Load(dir string) ([]*File, error) {
	modPath, err := goListModule(dir)
	if err != nil {
		return nil, err
	}
	out, err := runGo(dir, "list", "-deps", "-export", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,ForTest", "./...")
	if err != nil {
		return nil, err
	}

	exports, targets, order, err := parseList(out)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)

	var files []*File
	for _, clean := range order {
		p := targets[clean]
		pkgFiles, err := checkPackage(fset, imp, modPath, clean, p)
		if err != nil {
			return nil, err
		}
		files = append(files, pkgFiles...)
	}
	return files, nil
}

// parseList decodes a `go list -deps -export -test -json` stream in one
// pass: it collects export data for every package and picks the lint
// targets. `go list -test` emits both "pkg" and the superset variant
// "pkg [pkg.test]"; only the variant is linted so each file is analyzed
// exactly once.
func parseList(out []byte) (exports map[string]string, targets map[string]listPkg, order []string, err error) {
	exports = map[string]string{}
	targets = map[string]listPkg{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		clean := cleanPath(p.ImportPath)
		if p.Export != "" {
			// Prefer the plain archive: that is what other
			// packages compile against.
			if _, ok := exports[clean]; !ok || p.ForTest == "" {
				exports[clean] = p.Export
			}
		}
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") {
			continue // dependency or synthesized test-main package
		}
		if prev, ok := targets[clean]; ok {
			if prev.ForTest == "" && p.ForTest != "" {
				targets[clean] = p
			}
			continue
		}
		targets[clean] = p
		order = append(order, clean)
	}
	return exports, targets, order, nil
}

// exportImporter returns an importer that resolves dependencies from the
// compiler export-data archives indexed by import path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// checkPackage parses and type-checks one package and wraps its files.
func checkPackage(fset *token.FileSet, imp types.Importer, modPath, clean string, p listPkg) ([]*File, error) {
	var asts []*ast.File
	var names []string
	for _, g := range p.GoFiles {
		name := g
		if !filepath.IsAbs(name) {
			name = filepath.Join(p.Dir, g)
		}
		a, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		asts = append(asts, a)
		names = append(names, name)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(clean, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", clean, err)
	}
	rel := strings.TrimPrefix(clean, modPath)
	rel = strings.TrimPrefix(rel, "/")
	if rel == modPath || clean == modPath {
		rel = ""
	}
	var files []*File
	for i, a := range asts {
		files = append(files, &File{
			Fset: fset, Ast: a, Name: names[i], IsTest: strings.HasSuffix(names[i], "_test.go"),
			Pkg: pkg, Info: info, ImportPath: clean, RelPath: rel,
		})
	}
	return files, nil
}

// goListModule returns the module path of the module rooted at dir.
func goListModule(dir string) (string, error) {
	out, err := runGo(dir, "list", "-m")
	if err != nil {
		return "", err
	}
	mod := strings.TrimSpace(string(out))
	// Outside a module the go command reports the synthetic
	// "command-line-arguments" package instead of failing.
	if mod == "" || mod == "command-line-arguments" {
		return "", fmt.Errorf("lint: %s is not inside a Go module", filepath.Join(dir, "."))
	}
	return mod, nil
}

// runGo invokes the go command in dir and returns stdout, folding stderr
// into the error on failure.
func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go %s: %s", strings.Join(args, " "), msg)
	}
	return out, nil
}
