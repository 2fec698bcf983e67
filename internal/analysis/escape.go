package analysis

// The escape check fails the lint when a //pam:hotpath function gains a
// heap escape. It is the dynamic complement to the hotpath analyzer: that
// analyzer rejects constructs that always allocate (make, literals, fmt),
// while this check asks the compiler's own escape analysis whether any
// value in a hot-path body was moved to the heap — catching escapes the
// syntax tree cannot see, like a pointer leaking through an interface.
//
// BuildEscapes runs `go build -gcflags=-m` over the patterns once; Escape
// correlates every "escapes to heap" / "moved to heap" diagnostic in that
// output against the hot-function spans of the loaded program. The build
// cache replays compiler diagnostics, so repeat runs are cheap. The
// per-line escape hatch is //pam:escape-ok, read through the same line
// directive index as //pam:slowpath-ok:
//
//	buf := new(ring) //pam:escape-ok one-time prologue allocation

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Escape returns the heap-escape check over one `go build -gcflags=-m`
// output, as BuildEscapes produces it. It is not part of All: its input
// comes from the compiler, not from the loaded program.
func Escape(compilerOutput string) *Analyzer {
	escapes := parseEscapes(compilerOutput)
	return &Analyzer{
		Name: "escape",
		Doc:  "//pam:hotpath functions must have no heap escape in go build -gcflags=-m",
		Run: func(pass *Pass) error {
			byFile := pass.Prog.Fact("escape", func() any {
				m := make(map[string][]escape)
				for _, e := range escapes {
					path := e.file
					if !filepath.IsAbs(path) {
						path = filepath.Join(pass.Prog.ModuleDir, path)
					}
					m[path] = append(m[path], e)
				}
				return m
			}).(map[string][]escape)
			correlate(pass, byFile)
			return nil
		},
	}
}

// BuildEscapes compiles the patterns (default ./...) in moduleDir with
// escape-analysis diagnostics on and returns the compiler's output.
// Binaries from main packages land in a throwaway directory so the tree
// stays clean.
func BuildEscapes(moduleDir string, patterns []string) (string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	tmp, err := os.MkdirTemp("", "pamlint")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	build := func(args ...string) (string, error) {
		cmd := exec.Command("go", append(append([]string{"build", "-gcflags=-m"}, args...), patterns...)...)
		cmd.Dir = moduleDir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := build("-o", tmp)
	if err != nil && strings.Contains(out, "no main packages") {
		// -o rejects pattern sets with no main package; without it the
		// build compiles the packages and writes nothing.
		out, err = build()
	}
	if err != nil {
		return "", fmt.Errorf("go build -gcflags=-m: %w\n%s", err, out)
	}
	return out, nil
}

// escape is one compiler escape diagnostic, at the position the compiler
// printed (relative to the directory it ran in).
type escape struct {
	file      string
	line, col int
	msg       string
}

// parseEscapes extracts the heap-escape diagnostics from -gcflags=-m
// output, dropping the rest of the compiler's chatter (inlining decisions,
// "leaking param" notes, "# package" headers).
func parseEscapes(out string) []escape {
	var escapes []escape
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		// path.go:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		escapes = append(escapes, escape{
			file: filepath.ToSlash(parts[0]),
			line: ln,
			col:  col,
			msg:  strings.TrimSpace(parts[3]),
		})
	}
	return escapes
}

// correlate reports every escape that lands inside one of the package's
// //pam:hotpath functions and is not excused by //pam:escape-ok on its
// line or the line above. The compiler can emit the same diagnostic once
// per build configuration; each is reported once.
func correlate(pass *Pass, byFile map[string][]escape) {
	fset := pass.Prog.Fset
	seen := make(map[escape]bool)
	for _, f := range pass.Pkg.Files {
		tf := fset.File(f.Pos())
		escapes := byFile[tf.Name()]
		if len(escapes) == 0 {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !FuncDirective(fd, "hotpath") {
				continue
			}
			start, end := tf.Line(fd.Pos()), tf.Line(fd.End())
			for _, e := range escapes {
				if e.line < start || e.line > end || seen[e] {
					continue
				}
				pos := tf.LineStart(e.line) + token.Pos(e.col-1)
				if pass.Pkg.LineAllowed(fset, pos, "escape-ok") {
					continue
				}
				seen[e] = true
				pass.Reportf(pos, "hot path %s: %s", funcDisplayName(pass, fd), e.msg)
			}
		}
	}
}
