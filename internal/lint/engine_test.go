package lint

import (
	"go/types"
	"testing"
)

// Driver-level tests for the interprocedural substrate: call-graph edge
// construction (direct calls, recursion, closures) and the references that
// are deliberately not edges (function and method values).

func loadEngineTestPkg(t *testing.T, importPath, dir string) (*Loader, *Package) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.Overrides = map[string]string{importPath: dir}
	pkg, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("loading %s from %s: %v", importPath, dir, err)
	}
	return loader, pkg
}

func scopeObj(t *testing.T, pkg *Package, name string) types.Object {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("no package-level object %s", name)
	}
	return obj
}

func TestModuleGraphEdges(t *testing.T) {
	loader, pkg := loadEngineTestPkg(t, "overshadow/internal/core", "testdata/src/callgraph")
	g := buildModuleGraph(loader.order)

	hasEdge := func(from, to types.Object) bool {
		for _, o := range g.Calls[from] {
			if o == to {
				return true
			}
		}
		return false
	}

	entry := scopeObj(t, pkg, "entry")
	a := scopeObj(t, pkg, "a")
	b := scopeObj(t, pkg, "b")
	if !hasEdge(entry, a) {
		t.Error("missing call edge entry -> a")
	}
	if !hasEdge(a, b) || !hasEdge(b, a) {
		t.Error("missing mutual-recursion edges a <-> b")
	}

	// A call inside a function literal is attributed to the enclosing decl.
	if !hasEdge(scopeObj(t, pkg, "viaClosure"), scopeObj(t, pkg, "closTarget")) {
		t.Error("missing closure-attributed call edge viaClosure -> closTarget")
	}

	// A function referenced as a value, never called, is not an edge.
	if hasEdge(scopeObj(t, pkg, "viaValue"), scopeObj(t, pkg, "helperMV")) {
		t.Error("function value reference must not be a call edge")
	}
	if len(g.Calls[scopeObj(t, pkg, "methodValue")]) != 0 {
		t.Error("bound method value must not be a call edge")
	}
}
