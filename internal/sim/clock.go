// Package sim provides the deterministic simulation substrate shared by the
// whole machine: a virtual cycle clock, the cycle cost model, event counters,
// and a seeded PRNG.
//
// The simulated machine executes exactly one vCPU context at a time: guest
// tasks run only while they hold the scheduler's channel baton, and with
// VCPUs > 1 the interleaving of contexts is drawn from a seeded schedule. So
// simulated time is a single totally-ordered cycle stream for any vCPU count,
// and the types in this package carry no locks — the baton handoff is the
// serializer, and it is also the happens-before edge the race detector
// checks. Host parallelism comes only from sharding whole worlds across the
// harness pool; nothing here is shared between worlds. All performance
// results reported by the benchmark harness are expressed in simulated cycles
// drawn from this clock, which makes experiment shapes reproducible
// run-to-run and independent of host hardware.
package sim

import "fmt"

// Cycles is a quantity of simulated CPU cycles.
type Cycles uint64

// String renders a cycle count with a thousands-grouping for readability.
func (c Cycles) String() string {
	if c < 1000 {
		return fmt.Sprintf("%d cyc", uint64(c))
	}
	if c < 1000*1000 {
		return fmt.Sprintf("%.1f Kcyc", float64(c)/1e3)
	}
	if c < 1000*1000*1000 {
		return fmt.Sprintf("%.2f Mcyc", float64(c)/1e6)
	}
	return fmt.Sprintf("%.3f Gcyc", float64(c)/1e9)
}

// Clock is the global simulated-time source. Components charge costs to it
// through their vCPU (VCPU.Charge and friends, which also credit the vCPU's
// own counter); the guest OS reads it for preemption and timers. A clock may
// carry a crash deadline: the first charge that reaches it stops the whole
// machine at exactly that cycle (see SetCrashAt).
type Clock struct {
	now     Cycles
	crashAt Cycles
	armed   bool
	crashed bool
}

// NewClock returns a clock at cycle zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time.
func (c *Clock) Now() Cycles { return c.now }

// SetCrashAt arms a whole-machine crash at simulated cycle at. A deadline
// already in the past fires on the next charge (time still clamps forward,
// never backward). Passing 0 disarms.
func (c *Clock) SetCrashAt(at Cycles) {
	if at == 0 {
		c.armed = false
		return
	}
	if at < c.now {
		at = c.now
	}
	c.crashAt = at
	c.armed = true
}

// Crashed reports whether an armed deadline fired.
func (c *Clock) Crashed() bool { return c.crashed }

// Crash is the panic value carrying a fired crash deadline. It exists so
// the kernel scheduler can distinguish a deliberate whole-machine stop from
// a genuine bug (which must keep propagating).
type Crash struct {
	// At is the exact simulated cycle the machine stopped.
	At Cycles
}

// IsCrash reports whether a recovered panic value is a machine crash.
func IsCrash(r any) bool {
	_, ok := r.(Crash)
	return ok
}

// Since reports the cycles elapsed since an earlier reading.
func (c *Clock) Since(t Cycles) Cycles {
	if c.now < t {
		return 0
	}
	return c.now - t
}
