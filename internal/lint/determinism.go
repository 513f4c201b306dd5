package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the simulation's bit-exact reproducibility
// (DESIGN.md "Determinism note", internal/core/determinism_test.go). Inside
// the simulated-machine packages every source of nondeterminism is banned:
//
//   - host wall-clock reads (time.Now, time.Since, ...) and host sleeps —
//     simulated time comes only from sim.Clock;
//   - math/rand — randomness comes only from the seeded sim RNG;
//   - select over multiple channels — the runtime picks a ready case
//     pseudo-randomly (a single case plus default stays deterministic);
//   - bare go statements — concurrency must be routed through the guest
//     kernel's baton scheduler, which admits exactly one runnable goroutine.
//
// Packages that serialize bytes onto simulated stable storage
// (internal/persist) carry one extra rule: no ranging over maps — Go
// randomizes iteration order, and serialized journal bytes must be a pure
// function of the simulation history. Order-independent loops are
// whitelisted with reviewed //overlint:allow comments.
//
// One rule is ungated and applies to every package: the seed argument of
// fault.NewInjector must be a pure function of the simulation seed. A fault
// schedule seeded from host randomness (wall clock, math/rand, os state)
// would make failure runs unreproducible — the exact property the fault
// layer exists to provide (see internal/fault and experiment E13).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid host time, math/rand, multi-channel select, and unscheduled goroutines in simulated-machine packages",
	Run:  runDeterminism,
}

// deterministicPkgs are the packages forming the simulated machine; only
// they are subject to the determinism rules.
var deterministicPkgs = map[string]bool{
	"overshadow/internal/sim":     true,
	"overshadow/internal/mach":    true,
	"overshadow/internal/mmu":     true,
	"overshadow/internal/vmm":     true,
	"overshadow/internal/guestos": true,
	"overshadow/internal/cloak":   true,
	// fault schedules are part of the reproducible machine: the injector
	// must never consult host state.
	"overshadow/internal/fault": true,
	// obs timestamps spans and buckets cycles: a host-clock read there
	// would silently break the bit-identical trace and report exports.
	"overshadow/internal/obs": true,
	// persist serializes VMM metadata onto the simulated disk; its bytes
	// must be a pure function of the simulation history (see the map-range
	// rule below).
	"overshadow/internal/persist": true,
	// migrate serializes sealed checkpoints onto the (fault-injected)
	// transfer channel; the blob must be a pure function of the source
	// machine's history for migrations to be replayable per seed.
	"overshadow/internal/migrate": true,
}

// serializingPkgs write bytes to simulated stable storage. Inside them a
// range over a map is a finding: Go randomizes map iteration order, so any
// serialization (or cycle charge) reached from the loop body would differ
// run to run. Loops whose bodies are provably order-independent (say,
// collect-then-sort) carry reviewed //overlint:allow comments.
var serializingPkgs = map[string]bool{
	"overshadow/internal/persist": true,
	// obs serializes every observability export (Chrome traces, the run
	// report, histogram tables); a map range that reaches
	// serialized bytes without an intervening sort would break the
	// byte-identical-at-any-shard-count contract.
	"overshadow/internal/obs": true,
	// migrate encodes checkpoint blobs byte-for-byte; map iteration must
	// never reach the encoder.
	"overshadow/internal/migrate": true,
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
	gated := deterministicPkgs[pass.Pkg.Path]
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
			if !serializingPkgs[pass.Pkg.Path] {
				return true
			}
			if tv := info.TypeOf(n.X); tv != nil {
				if _, isMap := tv.Underlying().(*types.Map); isMap {
					pass.Report(n.Pos(), "map iteration order is nondeterministic: sort keys before serializing")
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
