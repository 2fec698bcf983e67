// Command pamlint is the repo's one invariant checker: it loads the whole
// module (or the package patterns given as arguments), runs every analyzer
// in internal/analysis — hotpath, atomicfield, unitcheck, provenance and
// the doc checks pkgdoc, mdlinks and examples — plus the escape check over
// one `go build -gcflags=-m` of the same patterns, and exits non-zero when
// any invariant is violated. CI runs it in the lint job; run it locally
// with `go run ./cmd/pamlint ./...`. See DESIGN.md §6 for what each check
// enforces and the annotation vocabulary (//pam:hotpath, //pam:slowpath,
// //pam:unit, //pam:escape-ok, ...) the checks are driven by.
//
// Exit status: 0 clean, 1 findings, 2 operational failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pamlint [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the repo's invariant analyzers over the module (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range append(analysis.All(), analysis.Escape("")) {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	// The compiler's escape analysis and the module load are independent:
	// run them side by side.
	type build struct {
		out string
		err error
	}
	built := make(chan build, 1)
	go func() {
		out, err := analysis.BuildEscapes(".", flag.Args())
		built <- build{out, err}
	}()
	prog, err := analysis.LoadModule(".", flag.Args())
	b := <-built
	if err != nil {
		fail(err)
	}
	if b.err != nil {
		fail(b.err)
	}
	diags, err := analysis.Run(prog, append(analysis.All(), analysis.Escape(b.out)))
	if err != nil {
		fail(err)
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", rel(pos.String()), d.Analyzer.Name, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pamlint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
	fmt.Printf("pamlint: %d package(s) clean\n", len(prog.Packages))
}

// fail reports an operational error: exit 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "pamlint:", err)
	os.Exit(2)
}

// rel trims the current working directory prefix from a position string so
// diagnostics print repo-relative paths.
func rel(pos string) string {
	wd, err := os.Getwd()
	if err != nil {
		return pos
	}
	if len(pos) > len(wd)+1 && pos[:len(wd)] == wd {
		return pos[len(wd)+1:]
	}
	return pos
}
