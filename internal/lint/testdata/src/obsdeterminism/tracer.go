// Package obs is determinism-analyzer testdata loaded under the production
// import path overshadow/internal/obs: span timestamps must come from the
// simulated clock, so every host-time read in the tracer is a finding.
package obs

import "time"

type span struct {
	start uint64
	wall  time.Time
}

// stamp is the classic mistake this case guards against: timestamping a
// span with the host clock instead of simulated cycles.
func stamp(s *span) {
	s.wall = time.Now() // want `time\.Now reads host time: simulated components must use sim\.Clock`
}

// age compounds it: host-clock deltas leak into exported durations.
func age(s *span) time.Duration {
	return time.Since(s.wall) // want `time\.Since reads host time: simulated components must use sim\.Clock`
}

// fromCycles is fine: pure value manipulation of a simulated timestamp.
func fromCycles(c uint64) uint64 { return c * 2 }

// flatten exercises the map-range rule: obs renders every observability
// export, so an unsorted map walk that could reach serialized bytes is a
// finding.
func flatten(counters map[string]uint64) []uint64 {
	var out []uint64
	for _, v := range counters { // want `map iteration order is nondeterministic: walk ordered\.Keys\(m\) instead`
		out = append(out, v)
	}
	return out
}

// total carries a reviewed allow comment: a commutative sum is order-blind,
// and the directive records that reasoning next to the range.
func total(counters map[string]uint64) uint64 {
	var t uint64
	//overlint:allow determinism -- commutative sum; iteration order cannot reach serialized bytes
	for _, v := range counters {
		t += v
	}
	return t
}
