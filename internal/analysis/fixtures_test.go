// Golden-fixture tests for the pamlint checks, plus a whole-tree run
// asserting the real codebase is clean — the same invariant CI's lint job
// enforces, kept under tier-1 so a violation fails `go test ./...` even
// where the lint job doesn't run.
package analysis_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestHotPathFixture(t *testing.T) {
	analysistest.Run(t, "testdata/hotpath", "testdata/hotpath", analysis.HotPath)
}

func TestAtomicFieldFixture(t *testing.T) {
	analysistest.Run(t, "testdata/atomicfield", "testdata/atomicfield", analysis.AtomicField)
}

func TestUnitCheckFixture(t *testing.T) {
	analysistest.Run(t, "testdata/unitcheck", "testdata/unitcheck", analysis.UnitCheck)
}

func TestProvenanceFixture(t *testing.T) {
	analysistest.Run(t, "testdata/provenance", "testdata/provenance", analysis.Provenance)
}

func TestDocsFixture(t *testing.T) {
	analysistest.Run(t, "testdata/docs/internal/nodoc", "testdata/docs",
		analysis.PackageDoc, analysis.Links, analysis.Examples)
}

// TestScanFileAndCorrelate feeds canned -gcflags=-m output against the hot
// spans of the loaded fixture, so no test spawns the compiler. Every
// allocation line is reported twice, as the compiler repeats a diagnostic
// once per build configuration, and one escape sits in a file outside the
// fixture.
func TestScanFileAndCorrelate(t *testing.T) {
	runEscapeFixture(t, "testdata/escape")
}

// TestCorrelateAllowsLineAbove checks that //pam:escape-ok on the line above
// an escape silences it, as it does on the escape's own line.
func TestCorrelateAllowsLineAbove(t *testing.T) {
	runEscapeFixture(t, "testdata/escapeabove")
}

// runEscapeFixture runs the escape check over dir/escape.go with canned
// compiler output reporting each of its make( calls as a heap escape.
func runEscapeFixture(t *testing.T, dir string) {
	t.Helper()
	src, err := os.ReadFile(dir + "/escape.go")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	out.WriteString("# fixture\nescape.go:3:6: can inline cold\n")
	for i, line := range strings.Split(string(src), "\n") {
		if col := strings.Index(line, "make("); col >= 0 {
			for range 2 {
				fmt.Fprintf(&out, "escape.go:%d:%d: make([]byte, n) escapes to heap\n", i+1, col+1)
			}
		}
	}
	out.WriteString("other.go:7:3: composite literal escapes to heap\n")
	analysistest.Run(t, dir, dir, analysis.Escape(out.String()))
}

// TestTreeClean runs every analyzer over the whole module, as `pamlint
// ./...` does. Loading the module through the source importer takes a few
// seconds, so -short skips it.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis is slow; skipped under -short")
	}
	prog, err := analysis.LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	ds, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(ds) > 0 {
		t.Errorf("tree is not pamlint-clean:\n%s", analysistest.Diagnostics(prog, ds))
	}
}
