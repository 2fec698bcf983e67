// Command docscheck guards the repository's documentation from rot. It
// fails (exit 1) when:
//
//   - a markdown file contains an intra-repo link whose target does not
//     exist (links into DESIGN.md and between the top-level docs are load
//     bearing: several packages cite DESIGN.md sections from godoc),
//   - an internal package has no package-level godoc comment, or
//   - a directory under examples/ is missing from README.md's example
//     table (every runnable walkthrough must stay discoverable).
//
// (The DESIGN.md §5 provenance rule for scenario.Params lives in pamlint's
// provenance analyzer, in the lint job.)
//
// External links (http/https/mailto) and pure-anchor links are not checked.
// CI runs it as the docs job; run it locally with `go run ./cmd/docscheck`.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches markdown link targets: [text](target). Reference-style
// links and autolinks are out of scope — the repo uses inline links.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func main() {
	var problems []string

	problems = append(problems, checkMarkdownLinks(".")...)
	problems = append(problems, checkPackageDocs("./internal")...)
	problems = append(problems, checkExamplesIndexed("examples", "README.md")...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links, package godoc and example table OK")
}

// checkMarkdownLinks verifies every relative link target in every tracked
// markdown file resolves to an existing file or directory.
func checkMarkdownLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "vendor" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.EqualFold(filepath.Ext(path), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if target == "" ||
				strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			// Strip an anchor suffix; the file must still exist.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", path, m[1]))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}

// checkExamplesIndexed verifies every example directory is mentioned in the
// README (as "examples/<name>"), keeping the example table complete.
func checkExamplesIndexed(examplesDir, readme string) []string {
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", examplesDir, err)}
	}
	data, err := os.ReadFile(readme)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", readme, err)}
	}
	var problems []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ref := examplesDir + "/" + e.Name()
		if !strings.Contains(string(data), ref) {
			problems = append(problems, fmt.Sprintf("%s: %q missing from the example table", readme, ref))
		}
	}
	return problems
}

// checkPackageDocs verifies each package directory under root has a
// package-level doc comment on at least one non-test file.
func checkPackageDocs(root string) []string {
	var problems []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo, hasDoc := false, false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			hasGo = true
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
			}
		}
		if hasGo && !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package has no package-level godoc comment", path))
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}
