package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadOutsideModule: a directory with no go.mod is rejected up front by
// the module-path probe.
func TestLoadOutsideModule(t *testing.T) {
	_, err := Load(t.TempDir())
	if err == nil {
		t.Fatal("Load succeeded outside a module")
	}
	if !strings.Contains(err.Error(), "not inside a Go module") {
		t.Errorf("error = %v, want the not-a-module diagnostic", err)
	}
}

// TestParseListMalformed: a truncated/garbled go list stream is reported,
// not half-consumed.
func TestParseListMalformed(t *testing.T) {
	_, _, _, err := parseList([]byte(`{"ImportPath": "x", "Dir":`))
	if err == nil {
		t.Fatal("parseList accepted malformed JSON")
	}
	if !strings.Contains(err.Error(), "decoding go list output") {
		t.Errorf("error = %v, want a decode diagnostic", err)
	}
}

// TestParseListVariants pins the stream-folding rules: dependencies and
// synthesized .test packages are skipped, the [pkg.test] variant supersedes
// the plain package as the lint target, and the plain export archive wins
// over the test variant's.
func TestParseListVariants(t *testing.T) {
	stream := `
{"ImportPath": "dep/only", "Export": "/tmp/dep.a", "DepOnly": true}
{"ImportPath": "m/a", "Export": "/tmp/a.a", "GoFiles": ["a.go"]}
{"ImportPath": "m/a [m/a.test]", "Export": "/tmp/a-test.a", "ForTest": "m/a", "GoFiles": ["a.go", "a_test.go"]}
{"ImportPath": "m/a.test", "DepOnly": false}
`
	exports, targets, order, err := parseList([]byte(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got := exports["m/a"]; got != "/tmp/a.a" {
		t.Errorf("exports[m/a] = %q, want the plain archive", got)
	}
	if got := exports["dep/only"]; got != "/tmp/dep.a" {
		t.Errorf("exports[dep/only] = %q, want dependency export retained", got)
	}
	if len(order) != 1 || order[0] != "m/a" {
		t.Fatalf("order = %v, want [m/a] only", order)
	}
	if tgt := targets["m/a"]; tgt.ForTest != "m/a" || len(tgt.GoFiles) != 2 {
		t.Errorf("target = %+v, want the [m/a.test] superset variant", tgt)
	}
}

// TestCheckPackageParseError: a file the parser rejects fails the package
// with a positioned diagnostic.
func TestCheckPackageParseError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package x\nfunc {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	_, err := checkPackage(fset, exportImporter(fset, nil), "m", "m/x",
		listPkg{ImportPath: "m/x", Dir: dir, GoFiles: []string{"bad.go"}})
	if err == nil {
		t.Fatal("checkPackage accepted a syntactically invalid file")
	}
	if !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("error = %v, want the offending file named", err)
	}
}

// TestCheckPackageMissingExport: an import with no export archive in the
// index fails type-checking with the lookup's diagnostic.
func TestCheckPackageMissingExport(t *testing.T) {
	dir := t.TempDir()
	src := "package x\n\nimport \"some/missing/dep\"\n\nvar _ = dep.Thing\n"
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	_, err := checkPackage(fset, exportImporter(fset, map[string]string{}), "m", "m/x",
		listPkg{ImportPath: "m/x", Dir: dir, GoFiles: []string{"x.go"}})
	if err == nil {
		t.Fatal("checkPackage type-checked against a missing export archive")
	}
	if !strings.Contains(err.Error(), "no export data") {
		t.Errorf("error = %v, want the missing-export diagnostic", err)
	}
}
