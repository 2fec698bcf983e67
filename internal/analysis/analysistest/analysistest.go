// Package analysistest runs analyzers against golden fixture packages, in
// the style of golang.org/x/tools/go/analysis/analysistest (which the build
// environment cannot vendor — see the parent package's doc). A fixture is a
// directory of Go source under testdata/ whose lines carry want comments:
//
//	el.mu.Lock() // want "mutex acquisition"
//
// Non-Go files an analyzer reads, such as markdown, carry the same payload
// in an HTML comment: <!-- want "broken link" -->.
//
// Run loads the fixture, applies the analyzers, and reports as test errors
// every diagnostic with no matching want comment and every want comment no
// diagnostic matched. The want argument is a regular expression matched
// against the diagnostic message; several want comments on one line match
// several diagnostics in order of appearance.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one want comment: a line and the message pattern.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRE extracts the quoted patterns of one want comment. Both `// want
// "p"` and `// want "p1" "p2"` forms are accepted, mirroring x/tools, and
// the same payload in an HTML comment for non-Go files.
var wantRE = regexp.MustCompile(`(?://|<!--)\s*want\s+(.*)$`)

// quotedRE splits the want payload into its quoted patterns.
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

// Run loads the fixture package rooted at dir, runs the analyzers over it,
// and checks the diagnostics against the fixture's want comments. moduleDir
// is reported as the program's module root (fixtures for the provenance
// and doc checks place DESIGN.md, README.md or examples/ there; others
// pass dir).
func Run(t *testing.T, dir, moduleDir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	prog, err := analysis.LoadDir(dir, moduleDir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	got, err := analysis.Run(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	want := collectWants(t, prog)

	for _, d := range got {
		pos := prog.Fset.Position(d.Diagnostic.Pos)
		if !matchWant(want, pos, d.Diagnostic.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s",
				pos.Filename, pos.Line, d.Analyzer.Name, d.Diagnostic.Message)
		}
	}
	for _, w := range want {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.pattern)
		}
	}
}

// collectWants scans the fixture's Go sources, and every other file an
// analyzer registered under the module root (markdown, say), line by line
// for want expectations: `// want "p"` in Go, `<!-- want "p" -->` elsewhere.
// It runs after the analyzers, which register those files.
func collectWants(t *testing.T, prog *analysis.Program) []*expectation {
	t.Helper()
	seen := make(map[string]bool)
	var files []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			files = append(files, name)
		}
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			add(prog.Fset.File(f.Pos()).Name())
		}
	}
	prog.Fset.Iterate(func(f *token.File) bool {
		if strings.HasPrefix(f.Name(), prog.ModuleDir+string(filepath.Separator)) {
			add(f.Name())
		}
		return true
	})
	var wants []*expectation
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				pat := q[1]
				if pat == "" {
					pat = q[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, pattern: re})
			}
		}
	}
	return wants
}

// matchWant marks and reports the first unmatched expectation on the
// diagnostic's line whose pattern matches the message.
func matchWant(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// Diagnostics formats a diagnostic list for debugging fixture failures.
func Diagnostics(prog *analysis.Program, ds []analysis.AnalyzerDiagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		pos := prog.Fset.Position(d.Diagnostic.Pos)
		fmt.Fprintf(&b, "%s:%d: %s: %s\n", pos.Filename, pos.Line, d.Analyzer.Name, d.Diagnostic.Message)
	}
	return b.String()
}
