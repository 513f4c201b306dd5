// Package harness is determinism-analyzer testdata for the injector-seed
// rule, loaded under the production import path overshadow/internal/harness.
// The rule is ungated — the host-side harness is not a machine package, so
// plain time/math-rand use passes here, but feeding either into
// fault.NewInjector's seed is a finding.
package harness

import (
	"math/rand"
	"time"

	"overshadow/internal/fault"
)

func badWallClockSeed(plan fault.Plan) *fault.Injector {
	return fault.NewInjector(uint64(time.Now().UnixNano()), plan) // want `fault\.NewInjector seed calls time\.`
}

func badRandSeed(plan fault.Plan) *fault.Injector {
	return fault.NewInjector(rand.Uint64(), plan) // want `fault\.NewInjector seed calls rand\.Uint64`
}

func badBuriedSeed(plan fault.Plan) *fault.Injector {
	seedish := func(x uint64) uint64 { return x * 3 }
	return fault.NewInjector(seedish(uint64(time.Now().Unix())), plan) // want `fault\.NewInjector seed calls time\.`
}

func okSimSeed(seed uint64, plan fault.Plan) *fault.Injector {
	return fault.NewInjector(seed, plan)
}

func okDerivedSeed(seed uint64, plan fault.Plan) *fault.Injector {
	// Mixing and arithmetic on the sim seed is fine — still a pure function.
	return fault.NewInjector(seed*0x9E3779B97F4A7C15+7, plan)
}

func okHostTimeElsewhere(plan fault.Plan) *fault.Injector {
	// Outside the seed argument (and outside the machine packages) host
	// time is not this rule's business.
	_ = time.Now()
	return fault.NewInjector(42, plan)
}
