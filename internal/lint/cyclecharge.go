package lint

import (
	"go/ast"
	"go/types"
)

// CycleChargeAnalyzer keeps the benchmark shapes honest. Every path that
// moves guest-memory bytes must advance the simulated clock through the
// internal/sim cost model; an exported VMM or guestos entry point that
// touches frame bytes without charging would make that operation free,
// silently distorting the paper's overhead curves.
//
// The check builds a static call graph over the whole module and flags
// exported functions declared in internal/vmm or internal/guestos that can
// reach a raw memory primitive ((*mach.Memory).Page / Zero) without any
// path-insensitive evidence of charging ((*sim.World).Charge/ChargeCount/
// ChargeAdd or (*sim.Clock).Advance). Calls into the observability surface
// (internal/obs; the sim span/attribution methods) are pruned from the
// graph: they are charge-free observers, so tracing an operation is never
// evidence of charging for it. The analysis is an under-approximation on
// dynamic calls (function values, interface methods), which is the safe
// direction: it may miss, it does not spuriously block.
var CycleChargeAnalyzer = &Analyzer{
	Name: "cyclecharge",
	Doc:  "exported VMM/guestos functions touching guest memory must charge the sim cost model",
	Run:  runCycleCharge,
}

// chargedPkgs are the packages whose exported API is held to the rule.
var chargedPkgs = map[string]bool{
	"overshadow/internal/vmm":     true,
	"overshadow/internal/guestos": true,
}

func runCycleCharge(pass *Pass) {
	if !chargedPkgs[pass.Pkg.Path] {
		return
	}
	graph := newChargeFacts(pass.Graph)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if r := receiverTypeName(fd); r != "" && !ast.IsExported(r) {
				continue // method of an unexported type: not module API
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if graph.touches(obj) && !graph.charges(obj) {
				pass.Report(fd.Name.Pos(), "exported %s reaches guest memory without charging the sim cost model", fd.Name.Name)
			}
		}
	}
}

// receiverTypeName extracts the receiver's base type name, if any.
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// chargeFacts holds the cyclecharge fact sets computed over the shared
// module graph. Calls into the observability surface are excluded from both
// the direct facts and the propagation (see isObserverPrimitive), which is
// how "tracing an operation is never evidence of charging for it" survives
// the move onto the shared graph: edges into observers exist there, but this
// analyzer refuses to walk them.
type chargeFacts struct {
	touchesAll map[types.Object]bool
	chargesAll map[types.Object]bool
}

// newChargeFacts derives the direct memory/charge facts from the shared
// graph's edge lists, then closes them backward over non-observer edges.
// Closures are attributed to the enclosing declaration by the graph builder,
// which is how callback-style iteration (PageTable.Range) stays visible.
func newChargeFacts(g *ModuleGraph) *chargeFacts {
	touchesDirect := make(map[types.Object]bool)
	chargesDirect := make(map[types.Object]bool)
	for caller, callees := range g.Calls {
		for _, callee := range callees {
			if isObserverPrimitive(callee) {
				continue
			}
			if isMemoryPrimitive(callee) {
				touchesDirect[caller] = true
			}
			if isChargePrimitive(callee) {
				chargesDirect[caller] = true
			}
		}
	}
	return &chargeFacts{
		touchesAll: closureSkippingObservers(g, touchesDirect),
		chargesAll: closureSkippingObservers(g, chargesDirect),
	}
}

// closureSkippingObservers propagates a direct fact set backward over call
// edges to a fixpoint, refusing to propagate through edges whose callee is
// an observer primitive. The graph is small (one module), so the quadratic
// worst case is irrelevant.
func closureSkippingObservers(g *ModuleGraph, direct map[types.Object]bool) map[types.Object]bool {
	reach := make(map[types.Object]bool, len(direct))
	for o := range direct {
		reach[o] = true
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range g.Calls {
			if reach[caller] {
				continue
			}
			for _, callee := range callees {
				if reach[callee] && !isObserverPrimitive(callee) {
					reach[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// calleeObject resolves the statically-known target of a call, if any.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isMemoryPrimitive reports whether obj is a raw machine-memory accessor.
func isMemoryPrimitive(obj types.Object) bool {
	return objIs(obj, "overshadow/internal/mach", "Memory", "Page") ||
		objIs(obj, "overshadow/internal/mach", "Memory", "Zero")
}

// isChargePrimitive reports whether obj advances the simulated clock: the
// per-vCPU charge methods are the only way to do so.
func isChargePrimitive(obj types.Object) bool {
	return objIs(obj, "overshadow/internal/sim", "VCPU", "Charge") ||
		objIs(obj, "overshadow/internal/sim", "VCPU", "ChargeCount") ||
		objIs(obj, "overshadow/internal/sim", "VCPU", "ChargeAdd")
}

// observerMethods are the sim.World/sim.VCPU (and SpanHandle) methods that
// only observe the machine: span emission, attribution bookkeeping,
// trace/metrics plumbing, and the stack profiler. None of them charges the
// clock — profiling an operation is never evidence of charging for it.
var observerMethods = map[string]bool{
	"Begin": true, "Emit": true, "EmitSpan": true,
	"SetTask": true, "SetTaskDomain": true, "SetPhase": true,
	"setPhase": true, "Attr": true,
	"EnableTrace": true, "EnableMetrics": true,
	"TraceEnabled": true, "TraceSpans": true,
	"EnableProfile": true, "Profile": true,
	"profLeaf": true, "profPush": true, "profPop": true,
	"profDispatch": true, "profObserve": true, "profSetPhase": true,
}

// isObserverPrimitive reports whether obj belongs to the observability
// surface: anything in internal/obs, or a sim tracing/attribution method.
// Call edges into observers are pruned from the graph so that observing an
// operation can never stand in as evidence of charging for it — e.g. a
// future self-charging EmitSpan must not make every traced-but-unchanged
// memory touch look paid for. (Pruning is safe in the other direction too:
// internal/obs never touches guest memory; it imports nothing from the
// module.)
func isObserverPrimitive(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if obj.Pkg().Path() == "overshadow/internal/obs" {
		return true
	}
	if obj.Pkg().Path() != "overshadow/internal/sim" {
		return false
	}
	switch recvNamed(obj) {
	case "World", "VCPU":
		return observerMethods[obj.Name()]
	case "SpanHandle", "Tracer":
		return true
	}
	return false
}

// objIs matches a method object by package path, receiver name, and name.
func objIs(obj types.Object, pkgPath, recv, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath || obj.Name() != name {
		return false
	}
	return recvNamed(obj) == recv
}

// touches reports whether obj can reach a memory primitive.
func (g *chargeFacts) touches(obj types.Object) bool { return g.touchesAll[obj] }

// charges reports whether obj can reach a charging primitive.
func (g *chargeFacts) charges(obj types.Object) bool { return g.chargesAll[obj] }
