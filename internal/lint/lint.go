// Package lint is a self-contained static-analysis framework for this
// module. It exists because six of the repository's design rules — bit-exact
// determinism of the simulated machine, the cloaking trust boundary between
// the untrusted guest kernel and the VMM, the guest errno discipline, Iago
// validation of kernel-returned values in the shim, honest cycle accounting,
// and machine state kept where the scheduler baton serializes it — are
// invariants the Go compiler cannot check and runtime tests only sample. The framework loads every package of the module
// with full type information using nothing but the standard library
// (go/parser, go/ast, go/types, go/importer), so the module's go.mod stays
// dependency-free and the linter runs offline.
//
// The architecture mirrors golang.org/x/tools/go/analysis in miniature: an
// Analyzer inspects one type-checked package through a Pass and reports
// Findings; the Driver loads packages, builds one module call graph, runs
// every analyzer, suppresses findings annotated with //overlint:allow
// comments, and renders the rest. Properties the analyzers cannot state
// precisely (plaintext never reaching disk or exports, allocation-free
// disabled observability) are pinned by runtime tests instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the identifier used in reports and //overlint:allow comments.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries everything an analyzer needs to inspect one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Graph is the whole-module call graph over every loaded package, built
	// once per run and shared by every analyzer and package.
	Graph *ModuleGraph

	findings *[]Finding
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported invariant violation.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the canonical file:line: analyzer: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string // import path, e.g. overshadow/internal/vmm
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzers returns the full production analyzer set in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CloakBoundaryAnalyzer,
		ErrnoDisciplineAnalyzer,
		IagoFlowAnalyzer,
		CycleChargeAnalyzer,
		SMPReadyAnalyzer,
	}
}

// inspect walks every file of the package, calling fn for each node.
func inspect(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
