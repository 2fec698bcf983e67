package analysis

// The loader: parses and type-checks module packages using only the
// standard library. Module-internal imports are resolved recursively from
// source; standard-library imports go through go/importer's "source"
// importer (which compiles stdlib packages from $GOROOT/src, needing no
// pre-built export data). There is deliberately no support for third-party
// modules: the repo has none and the build environment forbids adding any.

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// moduleRE extracts the module path from a go.mod.
var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// skipDirs are directory names walkTree never enters: fixtures, vendored
// code and VCS/tooling internals are not part of the checked tree.
var skipDirs = map[string]bool{
	".git": true, ".github": true, ".claude": true,
	"testdata": true, "vendor": true,
}

// LoadModule parses and type-checks the module rooted at moduleDir,
// restricted to the package patterns ("./..." for everything, "./sub/..."
// for a subtree, "./dir" for one package; an empty pattern list means
// "./..."). Only non-test files are loaded: the invariants the analyzers
// guard live in the dataplane sources, and test files routinely use the
// constructs the hot path bans.
func LoadModule(moduleDir string, patterns []string) (*Program, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modData, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	m := moduleRE.FindSubmatch(modData)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", moduleDir)
	}
	modPath := string(m[1])

	dirs, err := packageDirs(abs, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:       fset,
		moduleDir:  abs,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		loaded:     make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	prog := &Program{Fset: fset, ModuleDir: abs, ModulePath: modPath}
	for _, dir := range dirs {
		rel, err := filepath.Rel(abs, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	return prog, nil
}

// LoadDir type-checks a single directory as one package with stdlib-only
// imports — the analysistest loader for fixture packages under testdata.
// moduleDir is what Prog.ModuleDir reports (fixtures place a DESIGN.md
// there for the provenance analyzer).
func LoadDir(dir, moduleDir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:       fset,
		moduleDir:  abs,
		modulePath: "fixture",
		std:        importer.ForCompiler(fset, "source", nil),
		loaded:     make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	pkg, err := ld.loadDir("fixture", abs)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	absMod, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	return &Program{
		Fset:       fset,
		ModuleDir:  absMod,
		ModulePath: "fixture",
		Packages:   []*Package{pkg},
	}, nil
}

// packageDirs expands the patterns into package directories (dirs holding
// at least one non-test .go file), sorted for deterministic order.
func packageDirs(moduleDir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	addDir := func(path string, d fs.DirEntry) error {
		if d.IsDir() {
			add(path)
		}
		return nil
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		switch {
		case pat == "./..." || pat == "...":
			if err := walkTree(moduleDir, addDir); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(moduleDir, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			if err := walkTree(root, addDir); err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(moduleDir, filepath.FromSlash(pat)))
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkTree calls fn for every directory and file under root outside the
// skipDirs subtrees — the one tree walk package discovery and the markdown
// link check share.
func walkTree(root string, fn func(path string, d fs.DirEntry) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && skipDirs[d.Name()] {
			return filepath.SkipDir
		}
		return fn(path, d)
	})
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// constraintExcluded reports whether the file's //go:build constraint
// excludes it from a default build on this platform: the "race" and any
// unknown custom tags evaluate false, GOOS/GOARCH/unix/gc/go1.x true. The
// analyzers see exactly the file set `go build ./...` compiles.
func constraintExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(defaultBuildTag) {
				return true
			}
		}
	}
	return false
}

func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return runtime.GOOS == "linux" || runtime.GOOS == "darwin"
	}
	return strings.HasPrefix(tag, "go1.")
}

// loader resolves imports: module packages from source (recursively),
// everything else through the stdlib source importer.
type loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.Importer
	loaded     map[string]*Package
	loading    map[string]bool
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in module package %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load type-checks one module package by import path, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleDir, filepath.FromSlash(rel))
	pkg, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// loadDir parses and type-checks the non-test files of one directory.
// Returns (nil, nil) when the directory holds no non-test Go files.
func (l *loader) loadDir(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if constraintExcluded(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
