package lint

import (
	"go/ast"
	"go/types"
)

// SMPReadyAnalyzer keeps the machine-model packages (internal/mach,
// internal/sim, internal/vmm) free of state that the scheduler baton does not
// serialize. Exactly one vCPU of a world executes at a time, so everything
// hanging off a World — clock, counters, VMM, memory — is touched only by the
// baton holder and needs no lock. A package-level variable that any module
// function writes escapes that discipline: it is shared by every world the
// harness pool runs on parallel host goroutines, and by every vCPU of each.
// Such a variable is a finding, reported at its declaration; sentinel errors
// and other never-written vars are fine.
var SMPReadyAnalyzer = &Analyzer{
	Name: "smpready",
	Doc:  "package-level vars in mach/sim/vmm written at runtime (state outside the baton's reach)",
	Run:  runSMPReady,
}

// smpPkgs are the packages whose state the rule inventories.
var smpPkgs = map[string]bool{
	machPath:                  true,
	"overshadow/internal/sim": true,
	vmmPath:                   true,
}

var (
	cachedSMPWritten map[*types.Var]bool
	cachedSMPGraph   *ModuleGraph
)

// smpWrittenVars returns the gated package-level vars with at least one write
// anywhere in the module, memoized per graph.
func smpWrittenVars(g *ModuleGraph) map[*types.Var]bool {
	if cachedSMPGraph == g {
		return cachedSMPWritten
	}
	written := make(map[*types.Var]bool)
	for _, fi := range g.Order {
		scanVarWrites(fi, written)
	}
	cachedSMPWritten, cachedSMPGraph = written, g
	return written
}

// scanVarWrites records every gated package-level var one function writes:
// directly (v = x, v++), through a field (v.f = x), or through an index
// (v[k] = x — mutating a map or slice held in the var mutates it just the
// same). Writes through pointers and slices of unknown origin are skipped.
func scanVarWrites(fi *FuncInfo, written map[*types.Var]bool) {
	info := fi.Pkg.Info
	record := func(lhs ast.Expr) {
		switch lv := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			lhs = lv.X
		case *ast.IndexExpr:
			lhs = lv.X
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && smpPackageVar(v) {
				written[v] = true
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
}

// smpPackageVar reports whether v is a package-level variable of a gated
// package.
func smpPackageVar(v *types.Var) bool {
	if v.Pkg() == nil || !smpPkgs[v.Pkg().Path()] || v.IsField() {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

func runSMPReady(pass *Pass) {
	if !smpPkgs[pass.Pkg.Path] {
		return
	}
	written := smpWrittenVars(moduleGraphOf(pass.All))
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && written[v] {
			pass.Report(v.Pos(), "package-level var %s is written at runtime; machine state belongs on the World, where the scheduler baton serializes it", v.Name())
		}
	}
}
