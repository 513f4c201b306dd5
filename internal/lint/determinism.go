package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the simulation's bit-exact reproducibility
// (DESIGN.md "Determinism note", internal/core/determinism_test.go). Inside
// the simulated machine every source of nondeterminism is banned:
//
//   - host wall-clock reads (time.Now, time.Since, ...) and host sleeps —
//     simulated time comes only from sim.Clock;
//   - math/rand — randomness comes only from the seeded sim RNG;
//   - select over multiple channels — the runtime picks a ready case
//     pseudo-randomly (a single case plus default stays deterministic);
//   - bare go statements — concurrency must be routed through the guest
//     kernel's baton scheduler, which admits exactly one runnable goroutine;
//   - ranging over a map — Go randomizes iteration order, so a cycle charge,
//     trace span or serialized byte reached from the loop body would differ
//     run to run. The machine walks a map through ordered.Keys, whose one
//     range is the reviewed exemption.
//
// The machine is every package under internal/ except the host-side harness
// (which runs worlds on a goroutine pool) and the linter, so a new machine
// package is gated by default.
//
// One rule is ungated and applies to every package: the seed argument of
// fault.NewInjector must be a pure function of the simulation seed. A fault
// schedule seeded from host randomness (wall clock, math/rand, os state)
// would make failure runs unreproducible — the exact property the fault
// layer exists to provide (see internal/fault and experiment E13).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid host time, math/rand, multi-channel select, unscheduled goroutines and map ranges in simulated-machine packages",
	Run:  runDeterminism,
}

// machinePkg reports whether the package at path is part of the simulated
// machine, and so subject to the determinism rules.
func machinePkg(path string) bool {
	const internal = "overshadow/internal/"
	return strings.HasPrefix(path, internal) &&
		path != internal+"harness" && path != internal+"lint"
}

// faultPkgPath is the fault-injection package whose injector seeding is
// checked in every package, gated or not.
const faultPkgPath = "overshadow/internal/fault"

// hostRandomPkgs are packages whose function results must never feed an
// injector seed.
var hostRandomPkgs = map[string]bool{
	"time": true, "math/rand": true, "math/rand/v2": true,
	"crypto/rand": true, "os": true,
}

// forbiddenTimeFuncs are the package time functions that read the host
// clock or block on host time. Pure value manipulation (time.Duration
// arithmetic, time.Unix) is not listed: it is deterministic.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runDeterminism(pass *Pass) {
	gated := machinePkg(pass.Pkg.Path)
	info := pass.Pkg.Info
	inspect(pass.Pkg, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkInjectorSeed(pass, call)
		}
		if !gated {
			return true
		}
		switch n := n.(type) {
		case *ast.ImportSpec:
			path := strings.Trim(n.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Report(n.Pos(), "import of %s: use the seeded sim RNG (internal/sim/rng.go) so runs stay reproducible", path)
			}
		case *ast.SelectorExpr:
			ident, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[ident].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if forbiddenTimeFuncs[n.Sel.Name] {
				pass.Report(n.Pos(), "time.%s reads host time: simulated components must use sim.Clock", n.Sel.Name)
			}
		case *ast.SelectStmt:
			comms := 0
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				pass.Report(n.Pos(), "select over %d channels: the runtime chooses a ready case nondeterministically", comms)
			}
		case *ast.GoStmt:
			pass.Report(n.Pos(), "bare go statement: goroutines must be baton-scheduled by the guest kernel")
		case *ast.RangeStmt:
			if tv := info.TypeOf(n.X); tv != nil {
				if _, isMap := tv.Underlying().(*types.Map); isMap {
					pass.Report(n.Pos(), "map iteration order is nondeterministic: walk ordered.Keys(m) instead")
				}
			}
		}
		return true
	})
}

// checkInjectorSeed flags fault.NewInjector calls whose seed argument calls
// into a host-randomness package. The rule is syntactic over the seed
// expression: anything reaching time/math-rand/crypto-rand/os inside the
// first argument is a finding.
func checkInjectorSeed(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	info := pass.Pkg.Info
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "NewInjector" || fn.Pkg() == nil || fn.Pkg().Path() != faultPkgPath {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := info.Uses[s.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || !hostRandomPkgs[obj.Pkg().Path()] {
			return true
		}
		pass.Report(s.Pos(), "fault.NewInjector seed calls %s.%s: injector seeds must derive from the simulation seed, never host randomness", obj.Pkg().Name(), obj.Name())
		return false
	})
}
