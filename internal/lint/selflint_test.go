package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSelfLint runs the full analyzer suite over this repository and
// requires zero findings, so a PR cannot reintroduce a violation of the
// determinism/concurrency invariants without failing `go test`.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module; skipped in -short mode")
	}
	root := moduleRoot(t)
	files, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(files)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("lint found %d violation(s); fix them or add a //lint:ignore <rule> <reason> directive", len(findings))
	}
	// Sanity floor: an empty load would vacuously pass.
	if len(files) < 50 {
		t.Fatalf("self-lint only loaded %d files; loader is broken", len(files))
	}
}

// moduleRoot walks up from the test's working directory to the enclosing
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
