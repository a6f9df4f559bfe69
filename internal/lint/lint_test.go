package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/mod contains one small source file per
// rule with deliberate violations, approved patterns, and //lint:ignore
// suppressions. Loading it shells out to `go list -export`, so do it once.
var (
	fixtureOnce     sync.Once
	fixtureFindings []Finding
	fixtureErr      error
)

func fixture(t *testing.T) []Finding {
	t.Helper()
	fixtureOnce.Do(func() {
		files, err := Load(filepath.Join("testdata", "mod"))
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureFindings = Run(files)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureFindings
}

// key renders a finding as "relpath:line:col" with forward slashes,
// relative to the fixture module root.
func key(t *testing.T, f Finding) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(root, f.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(rel), f.Pos.Line, f.Pos.Column)
}

// ruleFindings filters the fixture findings down to one rule.
func ruleFindings(t *testing.T, rule string) []string {
	t.Helper()
	var got []string
	for _, f := range fixture(t) {
		if f.Rule == rule {
			got = append(got, key(t, f))
		}
	}
	return got
}

// wantExact asserts the exact diagnostic positions for one rule. The
// fixture files also contain suppressed and compliant variants of each
// violation, so an exact match doubles as the suppression test.
func wantExact(t *testing.T, rule string, want ...string) {
	t.Helper()
	got := ruleFindings(t, rule)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s findings:\ngot  %v\nwant %v", rule, got, want)
	}
}

func TestNoNakedGoroutine(t *testing.T) {
	wantExact(t, "no-naked-goroutine",
		"cmd/tool/main.go:13:2",      // binaries are not exempt
		"internal/lib/spawn.go:5:2",  // plain violation
		"internal/lib/spawn.go:18:2", // malformed directive does not suppress
	)
	// internal/par (line 8 of pool.go) and suppressed line 11 of spawn.go
	// must be absent — covered by the exact match above.
}

func TestSeededRandOnly(t *testing.T) {
	wantExact(t, "seeded-rand-only",
		"internal/lib/randuse.go:7:2", // rand.Shuffle
		"internal/lib/randuse.go:8:9", // rand.Float64
	)
}

func TestNoWallclockInSim(t *testing.T) {
	wantExact(t, "no-wallclock-in-sim",
		"internal/orbit/clock.go:8:9",  // time.Now
		"internal/orbit/clock.go:13:9", // time.Since
	)
	// cmd/tool calls time.Now too: allowed outside the deny-listed
	// packages, so it must not appear — covered by the exact match.
}

func TestNoFloatEquality(t *testing.T) {
	wantExact(t, "no-float-equality",
		"internal/lib/floateq.go:5:9",  // float64 ==
		"internal/lib/floateq.go:10:9", // float32 !=
	)
}

func TestCheckedErrors(t *testing.T) {
	wantExact(t, "checked-errors",
		"internal/lib/errs.go:16:2", // bare error-returning call
		"internal/lib/errs.go:17:2", // io.Writer.Write tuple
		"internal/lib/errs.go:37:2", // bufio Flush is never exempt
	)
}

func TestNoFmtPrintInLib(t *testing.T) {
	wantExact(t, "no-fmt-print-in-lib",
		"internal/lib/printy.go:10:2", // fmt.Println
		"internal/lib/printy.go:11:2", // builtin println
	)
}

func TestNoDtypeLiteral(t *testing.T) {
	wantExact(t, "no-dtype-literal",
		"internal/lib/dtype.go:9:9",  // float64(T)
		"internal/lib/dtype.go:14:9", // float32(T)
	)
	// The suppressed widening, conversions toward the type parameter,
	// non-generic conversions, and non-float constraints must all be
	// absent — covered by the exact match.
}

func TestMalformedDirective(t *testing.T) {
	wantExact(t, directiveRule,
		"internal/lib/spawn.go:17:2", // //lint:ignore without a reason
	)
}

func TestUnusedSuppression(t *testing.T) {
	wantExact(t, "unused-suppression",
		"internal/lib/unused.go:6:2", // stale: shields no finding
		"internal/lib/unused.go:8:2", // names a rule that does not exist
	)
	// Every other directive in the fixture tree suppresses a live finding,
	// so exactly these two surface.
}

// TestFindingFormat pins the rendered diagnostic shape: file:line:col [rule].
func TestFindingFormat(t *testing.T) {
	for _, f := range fixture(t) {
		if f.Rule != "no-naked-goroutine" || !strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "lib/spawn.go") {
			continue
		}
		got := f.String()
		want := fmt.Sprintf("%s:5:2: [no-naked-goroutine] go statement outside internal/par; route parallelism through the worker pool", f.Pos.Filename)
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		return
	}
	t.Fatal("expected spawn.go finding not present")
}
