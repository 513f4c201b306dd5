package harness

import (
	"sort"
	"sync"

	"overshadow/internal/core"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// Observer aggregates observability output across the many short-lived
// worlds one benchmark run builds (native and cloaked variants, repeated
// sweeps). Each attached world charges into its own obs.Metrics store and —
// when TraceCap > 0 — records spans into its own ring. Exports merge the
// per-world stores in declaration order (the slot key assigned at job
// submission), so the merged metrics JSON and the concatenated trace are
// byte-identical for any shard count, including the serial path.
type Observer struct {
	// TraceCap, when positive, enables span tracing on every attached world
	// with a ring of this capacity.
	TraceCap int
	// Profile, when set, enables stack-attributed profiling on every
	// attached world; MergedProfile folds the per-world profiles.
	Profile bool

	mu    sync.Mutex
	slots []obsSlot
}

// obsSlot is one attached world plus the submission-order key that pins its
// place in merged exports. Worlds attached from the same job share a key and
// keep their attach order (the sort below is stable); the serial path leaves
// every key zero, which degrades to plain attach order.
type obsSlot struct {
	key   uint64
	world *sim.World
	store *obs.Metrics
}

// attach wires a freshly built world into the observer: a private metrics
// store, the phase label for attribution, and (optionally) a span ring.
// Safe to call from concurrent benchmark jobs.
func (ob *Observer) attach(w *sim.World, phase string, key uint64) {
	store := w.EnableMetrics(nil)
	w.SetPhase(phase)
	if ob.TraceCap > 0 {
		w.EnableTrace(ob.TraceCap)
	}
	if ob.Profile {
		// After SetPhase: the profiler roots each world's stacks at the
		// phase label current at enable time.
		w.EnableProfile(nil)
	}
	ob.mu.Lock()
	ob.slots = append(ob.slots, obsSlot{key: key, world: w, store: store})
	ob.mu.Unlock()
}

// ordered returns the slots sorted by submission key (stable, so same-key
// worlds keep attach order). Call only after all jobs have finished.
func (ob *Observer) ordered() []obsSlot {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	out := make([]obsSlot, len(ob.slots))
	copy(out, ob.slots)
	sort.SliceStable(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// MergedMetrics folds every attached world's store into one snapshot-ready
// view. Merge is additive and commutative, so the result is independent of
// which worker built which world.
func (ob *Observer) MergedMetrics() *obs.Metrics {
	m := obs.NewMetrics()
	for _, s := range ob.ordered() {
		m.Merge(s.store)
	}
	return m
}

// MergedProfile folds every attached world's profile into one, in
// submission-key order. Profile merge is additive and commutative, so the
// result — and every export built from it — is byte-identical for any shard
// count. Each world's trace-ring dropped count is folded in so histogram
// exports surface truncation of the companion trace.
func (ob *Observer) MergedProfile() *obs.Profile {
	p := obs.NewProfile()
	for _, s := range ob.ordered() {
		p.Merge(s.world.Profile())
		p.AddDropped(s.world.Tracer.Dropped())
	}
	return p
}

// Trace merges the spans of every attached world in declaration order. Each
// world's clock starts at zero, so spans are rebased onto a concatenated
// timeline: world k's spans are offset by the total simulated time of worlds
// 0..k-1. Ring statistics are summed (Wrapped is true if any ring wrapped),
// so a truncated merged trace is still detectable.
func (ob *Observer) Trace() ([]obs.Span, obs.RingStats) {
	var out []obs.Span
	var ring obs.RingStats
	var base uint64
	for _, s := range ob.ordered() {
		spans, r := s.world.TraceSpans()
		for _, sp := range spans {
			sp.Start += base
			out = append(out, sp)
		}
		ring.Total += r.Total
		ring.Dropped += r.Dropped
		ring.Wrapped = ring.Wrapped || r.Wrapped
		base += uint64(s.world.Now())
	}
	return out, ring
}

// observe attaches w to the configured observer, if any, and registers it
// with the experiment's world tally. Harness code calls this at every
// world-construction site so -trace/-metrics and the bench record cover the
// whole run without per-experiment plumbing.
func (o Options) observe(w *sim.World, phase string) {
	if o.Observe != nil {
		o.Observe.attach(w, phase, o.obsKey)
	}
	if o.tally != nil {
		o.tally.add(w)
	}
}

// boot builds a machine and observes its world under phase.
func (o Options) boot(cfg core.Config, phase string) *core.System {
	sys := core.NewSystem(cfg)
	o.observe(sys.World, phase)
	return sys
}
