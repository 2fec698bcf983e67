package analysis

// The provenance analyzer: every exported field of scenario.Params — the
// calibrated knobs every live scenario runs on — must have a provenance
// entry in DESIGN.md §5, i.e. appear backtick-quoted in the calibration
// section. A calibrated default without provenance is how magic numbers
// rot: PRs 4, 5 and 8 each re-derived scenario constants from the shared
// gates' physics, and the §5 table is where those derivations live.
//
// The analyzer fires on any package named "scenario" declaring a struct
// type Params, and reads DESIGN.md from the module root. It is the rule's
// only home: CI's lint job (cmd/pamlint) runs it.

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
)

// Provenance is the DESIGN §5 scenario-knob provenance analyzer.
var Provenance = &Analyzer{
	Name: "provenance",
	Doc:  "every exported scenario.Params field needs a DESIGN.md §5 provenance entry",
	Run:  runProvenance,
}

func runProvenance(pass *Pass) error {
	if pass.Pkg.Types.Name() != "scenario" {
		return nil
	}
	var params *ast.StructType
	var fields []*ast.Ident
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Params" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			params = st
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						fields = append(fields, name)
					}
				}
			}
			return false
		})
	}
	if params == nil {
		return nil
	}
	design, err := os.ReadFile(filepath.Join(pass.Prog.ModuleDir, "DESIGN.md"))
	if err != nil {
		pass.Reportf(params.Pos(), "scenario.Params declared but DESIGN.md is unreadable: %v", err)
		return nil
	}
	section, ok := provenanceSection(design)
	if !ok {
		pass.Reportf(params.Pos(), "DESIGN.md has no \"## §5\" calibration section for scenario.Params provenance")
		return nil
	}
	for _, name := range fields {
		if !strings.Contains(section, "`"+name.Name+"`") {
			pass.Reportf(name.Pos(), "scenario.Params field %q has no provenance entry in DESIGN.md §5", name.Name)
		}
	}
	return nil
}

// provenanceSection extracts DESIGN.md's §5 calibration section: from the
// "## §5" heading to the next top-level heading.
func provenanceSection(design []byte) (string, bool) {
	section := string(design)
	i := strings.Index(section, "## §5")
	if i < 0 {
		return "", false
	}
	section = section[i:]
	if j := strings.Index(section[5:], "\n## "); j >= 0 {
		section = section[:5+j]
	}
	return section, true
}
