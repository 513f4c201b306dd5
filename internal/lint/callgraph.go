package lint

import (
	"go/ast"
	"go/types"
)

// This file is the shared substrate of the interprocedural analyzers: a
// whole-module static call graph with a function index. The driver builds it
// once per run and hands it to every analyzer as Pass.Graph. cyclecharge
// closes its charge/touch facts over the call edges (closures attributed to
// their enclosing declaration, static resolution through types.Info.Uses),
// and smpready walks the function index.
//
// The graph is an under-approximation on dynamic calls: a call through a
// function value, interface method, or field-stored callback resolves to no
// edge, and a function referenced as a value without being called is not an
// edge at all.

// FuncInfo indexes one declared function or method of the module.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// ModuleGraph is the module-wide static call graph.
type ModuleGraph struct {
	// Order lists every declared function with a body in load order
	// (package, file, decl) so passes over them are deterministic.
	Order []*FuncInfo
	// Calls maps caller -> statically resolved callees (in source order,
	// duplicates preserved; closures are attributed to the enclosing decl).
	Calls map[types.Object][]types.Object
}

// buildModuleGraph scans every function declaration of the loaded packages.
func buildModuleGraph(pkgs []*Package) *ModuleGraph {
	g := &ModuleGraph{
		Calls: make(map[types.Object][]types.Object),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := pkg.Info.Defs[fd.Name]
				if caller == nil {
					continue
				}
				g.Order = append(g.Order, &FuncInfo{Decl: fd, Pkg: pkg})
				g.scanBody(pkg.Info, caller, fd.Body)
			}
		}
	}
	return g
}

// scanBody records the call edges from caller's body.
func (g *ModuleGraph) scanBody(info *types.Info, caller types.Object, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeObject(info, call); callee != nil {
				g.Calls[caller] = append(g.Calls[caller], callee)
			}
		}
		return true
	})
}
