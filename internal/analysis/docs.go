package analysis

// The documentation checks guard the repository's docs from rot:
//
//   - pkgdoc: every package under internal/ carries a package-level godoc
//     comment;
//   - mdlinks: every relative link in a markdown file resolves to an
//     existing file or directory (links into DESIGN.md and between the
//     top-level docs are load bearing: several packages cite DESIGN.md
//     sections from godoc). External (http/https/mailto) and anchor-only
//     links are not checked;
//   - examples: every directory under examples/ is named in README.md's
//     example table, so every runnable walkthrough stays discoverable.
//
// mdlinks and examples are module-level: they read files beside the Go
// sources, as provenance reads DESIGN.md, and register them in the
// program's file set so findings print as ordinary file:line:col positions.

import (
	"bytes"
	"errors"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// PackageDoc is the package godoc check.
var PackageDoc = &Analyzer{
	Name: "pkgdoc",
	Doc:  "every package under internal/ needs a package-level godoc comment",
	Run:  runPackageDoc,
}

// Links is the markdown link check.
var Links = &Analyzer{
	Name: "mdlinks",
	Doc:  "every relative link in the module's markdown files must resolve",
	Run:  runLinks,
}

// Examples is the example-table check.
var Examples = &Analyzer{
	Name: "examples",
	Doc:  "every directory under examples/ must be named in README.md",
	Run:  runExamples,
}

func runPackageDoc(pass *Pass) error {
	rel, err := filepath.Rel(pass.Prog.ModuleDir, pass.Pkg.Dir)
	if err != nil || !strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return nil
		}
	}
	pass.Reportf(pass.Pkg.Files[0].Package, "package %s has no package-level godoc comment", pass.Pkg.Types.Name())
	return nil
}

// linkRE matches markdown link targets: [text](target). Reference-style
// links and autolinks are out of scope — the repo uses inline links.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func runLinks(pass *Pass) error {
	if !firstPackage(pass) {
		return nil
	}
	return walkTree(pass.Prog.ModuleDir, func(path string, d fs.DirEntry) error {
		if d.IsDir() || !strings.EqualFold(filepath.Ext(path), ".md") {
			return nil
		}
		tf, src, err := readFile(pass.Prog.Fset, path)
		if err != nil {
			return err
		}
		for _, m := range linkRE.FindAllSubmatchIndex(src, -1) {
			target := string(src[m[2]:m[3]])
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			// Strip an anchor suffix; the file must still exist. An
			// anchor-only link leaves "", the file's own directory.
			file, _, _ := strings.Cut(target, "#")
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), filepath.FromSlash(file))); err != nil {
				pass.Reportf(tf.Pos(m[2]), "broken link %q", target)
			}
		}
		return nil
	})
}

func runExamples(pass *Pass) error {
	if !firstPackage(pass) {
		return nil
	}
	entries, err := os.ReadDir(filepath.Join(pass.Prog.ModuleDir, "examples"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	tf, readme, err := readFile(pass.Prog.Fset, filepath.Join(pass.Prog.ModuleDir, "README.md"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if ref := "examples/" + e.Name(); e.IsDir() && !bytes.Contains(readme, []byte(ref)) {
			pass.Reportf(tf.Pos(0), "%q missing from the example table", ref)
		}
	}
	return nil
}

// firstPackage reports whether the pass is over the program's first
// package. Module-level checks have no package of their own; they run on
// this pass so they run once.
func firstPackage(pass *Pass) bool { return pass.Pkg == pass.Prog.Packages[0] }

// readFile reads a non-Go file and registers it in the file set.
func readFile(fset *token.FileSet, path string) (*token.File, []byte, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	tf := fset.AddFile(path, -1, len(src))
	tf.SetLinesForContent(src)
	return tf, src, nil
}
