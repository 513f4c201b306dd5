package harness

import (
	"overshadow/internal/core"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// Observer instruments every world one RunAll call builds (native and
// cloaked variants, repeated sweeps): each world charges into its own
// obs.Metrics store and profile and, when TraceCap > 0, records spans into
// its own ring. RunAll hands the observer the run's world list in
// submission-key order, so the report and the concatenated trace are
// byte-identical for any shard count, including the serial path. An
// Observer serves one RunAll call.
type Observer struct {
	// TraceCap, when positive, enables span tracing on every observed world
	// with a ring of this capacity.
	TraceCap int

	worlds []*sim.World // the run's worlds in key order, set by RunAll
}

// attach instruments a freshly built world: a private metrics store and
// profile, the phase label for attribution, and (optionally) a span ring.
// It touches only w, so concurrent benchmark jobs may call it.
func (ob *Observer) attach(w *sim.World, phase string) {
	w.EnableMetrics(nil)
	w.SetPhase(phase)
	if ob.TraceCap > 0 {
		w.EnableTrace(ob.TraceCap)
	}
	// After SetPhase: the profiler roots each world's stacks at the phase
	// label current at enable time.
	w.EnableProfile()
}

// Report folds every observed world's metrics and profile into the run
// report, with the trace rings' dropped-span total. Both merges are additive
// and commutative, so the report is independent of which worker built which
// world.
func (ob *Observer) Report() *obs.Report {
	m := obs.NewMetrics(sim.CounterTable())
	p := obs.NewProfile(sim.CounterTable())
	var dropped uint64
	for _, w := range ob.worlds {
		m.Merge(w.Metrics)
		p.Merge(w.Profile())
		dropped += w.Tracer.Dropped()
	}
	return obs.BuildReport(m, p, dropped)
}

// Trace merges the spans of every observed world in key order. Each world's
// clock starts at zero, so spans are rebased onto a concatenated timeline:
// world k's spans are offset by the total simulated time of worlds 0..k-1.
// Ring statistics are summed (Wrapped is true if any ring wrapped), so a
// truncated merged trace is still detectable.
func (ob *Observer) Trace() ([]obs.Span, obs.RingStats) {
	var out []obs.Span
	var ring obs.RingStats
	var base uint64
	for _, w := range ob.worlds {
		spans, r := w.TraceSpans()
		for _, sp := range spans {
			sp.Start += base
			out = append(out, sp)
		}
		ring.Total += r.Total
		ring.Dropped += r.Dropped
		ring.Wrapped = ring.Wrapped || r.Wrapped
		base += uint64(w.Now())
	}
	return out, ring
}

// observe instruments w for the configured observer, if any, and adds it
// to the run's world list. Harness code calls this at every
// world-construction site so the report, the trace and Result.SimCycles
// cover the whole run without per-experiment plumbing.
func (o Options) observe(w *sim.World, phase string) {
	if o.Observe != nil {
		o.Observe.attach(w, phase)
	}
	if o.worlds != nil {
		o.worlds.add(o.obsKey, w)
	}
}

// boot builds a machine and observes its world under phase.
func (o Options) boot(cfg core.Config, phase string) *core.System {
	sys := core.NewSystem(cfg)
	o.observe(sys.World, phase)
	return sys
}
