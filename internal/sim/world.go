package sim

import (
	"fmt"

	"overshadow/internal/fault"
	"overshadow/internal/obs"
)

// World bundles the machine-global simulation services — clock, cost model,
// counters, PRNG, and export surfaces — into a single handle threaded through
// every component of the machine. One World corresponds to one simulated
// machine; execution-scoped state (attribution, per-CPU cycle accounting,
// per-CPU random streams) lives on its VCPUs.
type World struct {
	Clock *Clock
	Cost  CostModel
	Stats *Stats
	// RNG is the machine-global stream, aliased by the boot vCPU so
	// single-vCPU machines draw the historical sequence.
	RNG *RNG
	// Tracer is nil until EnableTrace; see trace.go.
	Tracer *Tracer
	// Metrics is nil until EnableMetrics: with it off every charge pays
	// exactly one extra nil check, preserving the uninstrumented fast path.
	Metrics *obs.Metrics
	// Fault is nil unless a fault-injection plan is active; components
	// consult it through VCPU.InjectAt, which costs one nil check when off.
	// The injector carries its own seeded PRNG stream, so the fault-free
	// execution is bit-identical with Fault nil or an all-zero plan.
	Fault *fault.Injector

	// seed is the machine seed, kept for deriving per-vCPU and scheduler
	// streams (see DeriveRNG).
	seed uint64
	// phase is the current experiment phase label, applied to every vCPU's
	// attribution context by SetPhase.
	phase string

	// vcpus are the machine's execution contexts; cur is the one currently
	// holding the baton. Both are written only at construction and on
	// dispatch (one goroutine at a time), never from charge paths.
	vcpus []*VCPU
	cur   *VCPU

	// prof is nil until EnableProfile: with it off every charge, span, and
	// dispatch pays exactly one extra nil check (see prof.go).
	prof *profState
}

// NewWorld builds a single-vCPU World with the given cost model and seed —
// the historical machine shape, byte-identical to the pre-SMP simulator.
func NewWorld(cost CostModel, seed uint64) *World {
	return NewWorldN(cost, seed, 1)
}

// NewWorldN builds a World with n vCPUs. vCPU 0 (the boot vCPU) aliases the
// world RNG stream; every additional vCPU gets its own stream derived from
// the seed, so adding vCPUs never perturbs the boot stream.
func NewWorldN(cost CostModel, seed uint64, n int) *World {
	if n < 1 {
		n = 1
	}
	w := &World{
		Clock: NewClock(),
		Cost:  cost,
		Stats: NewStats(),
		RNG:   NewRNG(seed),
		seed:  seed,
	}
	w.vcpus = make([]*VCPU, n)
	for i := range w.vcpus {
		rng := w.RNG
		if i > 0 {
			rng = w.DeriveRNG(uint64(i))
		}
		w.vcpus[i] = &VCPU{id: i, w: w, RNG: rng}
	}
	w.cur = w.vcpus[0]
	return w
}

// DeriveRNG returns a fresh deterministic stream derived from the world seed
// and salt, well-separated from the boot stream and from other salts. Used
// for per-vCPU streams and the scheduler's interleaving schedule.
func (w *World) DeriveRNG(salt uint64) *RNG {
	return NewRNG(splitmix64(w.seed) ^ splitmix64(salt^0xC5C0A9A9C3C7)) // arbitrary domain-separation constant
}

// Boot returns the boot vCPU (index 0) — the machine context everything runs
// on before and outside guest dispatch.
func (w *World) Boot() *VCPU { return w.vcpus[0] }

// CPU returns the currently executing vCPU. The guest scheduler keeps it
// current via Activate; machine-wide components (disk, journal, caches) use
// it to charge whichever vCPU drove them. On a single-vCPU machine it is
// always the boot vCPU.
func (w *World) CPU() *VCPU { return w.cur }

// Activate marks c as the executing vCPU. Called by the guest scheduler on
// dispatch, strictly from the baton-holding goroutine.
func (w *World) Activate(c *VCPU) {
	if c.w != w {
		panic(fmt.Sprintf("sim: Activate with foreign vCPU %d", c.id))
	}
	w.cur = c
}

// VCPUs returns the machine's execution contexts, boot vCPU first.
func (w *World) VCPUs() []*VCPU { return w.vcpus }

// NumVCPUs reports the vCPU count.
func (w *World) NumVCPUs() int { return len(w.vcpus) }

// EnableMetrics turns on attributed cycle accounting. Passing a non-nil
// store (built over CounterTable) shares it between worlds (the harness
// aggregates native and cloaked runs into one profile); passing nil
// allocates a fresh one. Returns the active store.
func (w *World) EnableMetrics(shared *obs.Metrics) *obs.Metrics {
	if shared == nil {
		shared = obs.NewMetrics(counterTable)
	}
	w.Metrics = shared
	for _, c := range w.vcpus {
		c.row = shared.Row(c.attr)
	}
	return shared
}

// Now is shorthand for w.Clock.Now().
func (w *World) Now() Cycles { return w.Clock.Now() }

// SetPhase labels all subsequent attribution with an experiment phase
// (e.g. "E2/cloaked") on every vCPU; the harness sets it per measured region.
func (w *World) SetPhase(phase string) {
	w.phase = phase
	for _, c := range w.vcpus {
		a := c.attr
		a.Phase = phase
		c.setAttr(a)
	}
	if w.prof != nil {
		w.profSetPhase(phase)
	}
}
