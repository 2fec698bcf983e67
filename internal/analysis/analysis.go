// Package analysis is the repo's static-invariant checker core: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a whole-module loader, built
// only on the standard library's go/ast, go/parser, go/types and
// go/importer. The container this repo grows in carries no module
// dependencies and the build forbids adding any, so the x/tools multichecker
// cannot be vendored — instead the same Analyzer/Pass shape is provided
// here, close enough that an analyzer written against this package ports to
// x/tools by changing one import.
//
// The analyzers themselves (hotpath, atomicfield, unitcheck, provenance —
// see DESIGN.md §6) guard the invariants the lock-free dataplane rests on:
// no blocking or allocating calls in run-to-completion hot paths, no mixed
// atomic/plain access to a field, no unit-domain mixing outside the named
// conversion helpers, and no calibrated scenario knob without a DESIGN §5
// provenance entry. cmd/pamlint is the multichecker driver; the
// analysistest subpackage runs each analyzer against a testdata fixture
// package with want-comment expectations.
//
// Source annotations the analyzers read (all are ordinary comments, so the
// annotated code compiles unchanged):
//
//	//pam:hotpath            on a function: run-to-completion hot path; the
//	                         hotpath analyzer checks it and everything it
//	                         transitively calls inside the module.
//	//pam:slowpath           on a function: a guarded slow-path entry (FIFO
//	                         queue, parking, rendezvous). Hot paths may call
//	                         it; its body is not descended into.
//	//pam:slowpath-ok reason on a statement line: allow this one blocking or
//	                         allocating construct (a deliberate, guarded
//	                         exception) without descending into it.
//	//pam:nonatomic-ok reason on a statement line: allow a plain access to a
//	                         field that is accessed atomically elsewhere
//	                         (e.g. a read pre-publication).
//	//pam:unit domain        on a named type: values carry this unit domain.
//	//pam:unitconv           on a function: a named unit-conversion helper;
//	                         unit domains may enter, leave and mix here.
//	//pam:escape-ok reason   on a statement line: cmd/escapecheck tolerates a
//	                         heap escape reported for this line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Analyzer describes one invariant checker, mirroring the x/tools shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fixtures.
	Name string
	// Doc is the one-paragraph description printed by pamlint -help.
	Doc string
	// Run executes the analyzer over one package and reports findings via
	// the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one type-checked package of the loaded program.
type Package struct {
	// Path is the import path ("repro/internal/emul").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Files holds the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo carries the type-checker's expression/object maps.
	TypesInfo *types.Info

	// lineDirectives caches per-file pam: directives by line (lazy).
	dirOnce        sync.Once
	lineDirectives map[string]map[int][]string
}

// Program is the whole loaded module: every requested package plus the
// cross-package indexes analyzers need for transitive walks.
type Program struct {
	Fset *token.FileSet
	// ModuleDir is the module root (where go.mod and DESIGN.md live).
	ModuleDir string
	// ModulePath is the module's import path prefix ("repro").
	ModulePath string
	// Packages holds every loaded module package, in load order.
	Packages []*Package

	indexOnce sync.Once
	funcDecls map[*types.Func]*funcIn

	factsMu sync.Mutex
	facts   map[string]any
}

// funcIn locates one function declaration inside the program.
type funcIn struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Report   func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Fact computes a program-wide fact once per program and caches it, so an
// analyzer that needs a whole-module index (the atomicfield access map, the
// unitcheck type table) does not rebuild it for every package pass.
func (prog *Program) Fact(key string, build func() any) any {
	prog.factsMu.Lock()
	defer prog.factsMu.Unlock()
	if prog.facts == nil {
		prog.facts = make(map[string]any)
	}
	if v, ok := prog.facts[key]; ok {
		return v
	}
	v := build()
	prog.facts[key] = v
	return v
}

// FuncDecl resolves a function object to its declaration and hosting
// package, or nil when the function has no body in the loaded program
// (stdlib, assembly, interface methods).
func (prog *Program) FuncDecl(fn *types.Func) (*Package, *ast.FuncDecl) {
	prog.indexOnce.Do(prog.buildIndex)
	if fi, ok := prog.funcDecls[fn]; ok {
		return fi.pkg, fi.decl
	}
	return nil, nil
}

func (prog *Program) buildIndex() {
	prog.funcDecls = make(map[*types.Func]*funcIn)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					prog.funcDecls[fn] = &funcIn{pkg: pkg, decl: fd}
				}
			}
		}
	}
}

// AnalyzerDiagnostic pairs a finding with the analyzer that produced it,
// as collected by Run.
type AnalyzerDiagnostic struct {
	Analyzer *Analyzer
	Diagnostic
}

// Run executes every analyzer over every package of the program and returns
// the findings sorted by file position. A nil error with findings means the
// tree violates an invariant; an error means an analyzer itself failed.
func Run(prog *Program, analyzers []*Analyzer) ([]AnalyzerDiagnostic, error) {
	var out []AnalyzerDiagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer: a,
				Prog:     prog,
				Pkg:      pkg,
				Report: func(d Diagnostic) {
					out = append(out, AnalyzerDiagnostic{Analyzer: a, Diagnostic: d})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := prog.Fset.Position(out[i].Pos), prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer.Name < out[j].Analyzer.Name
	})
	return out, nil
}

// All returns the repo's analyzer suite in reporting order — the set
// cmd/pamlint runs.
func All() []*Analyzer {
	return []*Analyzer{HotPath, AtomicField, UnitCheck, Provenance}
}
