package sim

import (
	"overshadow/internal/fault"
	"overshadow/internal/obs"
)

// VCPU is the execution context of one simulated CPU: the handle every
// charge, trace, fault, and dispatch site goes through. All execution-scoped
// state — the attribution context, the per-CPU cycle counter, the per-CPU
// random stream — lives here; the World keeps only the machine-global clock,
// cost model, counters, and export surfaces.
//
// Exactly one vCPU executes at any simulated instant (the guest scheduler's
// baton enforces it), so the global clock only ever advances on behalf of the
// running vCPU and the per-vCPU cycle counters sum exactly to the clock. The
// baton also orders every access to the mutable fields; there is no lock.
type VCPU struct {
	id int
	w  *World

	// RNG is this vCPU's deterministic stream. The boot vCPU aliases the
	// World stream (so single-vCPU machines draw the historical sequence);
	// vCPU i > 0 draws a stream derived from the world seed and i.
	RNG *RNG

	// attr identifies the guest task this vCPU is running; charges and spans
	// are attributed to it. The guest scheduler and the shim keep it current
	// (see SetTask).
	attr obs.Attr
	// row is attr's row in the World's metrics store, nil while metrics are
	// off. It is looked up only when attr changes (setAttr), so a metered
	// charge is an array add.
	row obs.Row
	// cycles is the simulated time this vCPU has charged to the clock.
	cycles Cycles
}

// ID returns the vCPU index (0 is the boot vCPU).
func (c *VCPU) ID() int { return c.id }

// World returns the machine this vCPU belongs to.
func (c *VCPU) World() *World { return c.w }

// Cycles reports the simulated time this vCPU has charged so far. Summed
// over all vCPUs it equals the clock exactly, including across a crash.
func (c *VCPU) Cycles() Cycles { return c.cycles }

// chargeClock advances the global clock by n on this vCPU's behalf, crediting
// the cycles to the per-vCPU counter. If an armed crash deadline falls inside
// the charge, time is clamped to the deadline, the clamped cycles are
// credited, and a Crash panic unwinds the running context — the
// whole-machine power cut. The credit lands before the panic, so the
// sum-to-clock invariant holds in crashed worlds too, and the panic stops the
// charge before any counter or metrics attribution. Charges always execute on
// the baton holder, so the guest kernel's scheduler recover is the single
// catch point.
func (c *VCPU) chargeClock(n Cycles) {
	clk := c.w.Clock
	if clk.armed && clk.now+n >= clk.crashAt {
		c.cycles += clk.crashAt - clk.now
		clk.now = clk.crashAt
		clk.armed = false
		clk.crashed = true
		panic(Crash{At: clk.crashAt})
	}
	clk.now += n
	c.cycles += n
}

// ChargeCount advances the clock and increments the matching counter; the
// two almost always travel together.
func (c *VCPU) ChargeCount(n Cycles, ctr Counter) {
	c.chargeClock(n)
	w := c.w
	s := ctr.slot()
	w.Stats.counts[s]++
	if c.row != nil {
		c.row.Add(s, uint64(n), 1)
	}
	if w.prof != nil {
		w.profLeaf(s, uint64(n))
	}
}

// ChargeAdd advances the clock by n cycles attributed to counter ctr, adding
// events to the flat counter (events may be zero when the count is already
// maintained elsewhere and only the cycles need attribution).
func (c *VCPU) ChargeAdd(n Cycles, ctr Counter, events uint64) {
	c.chargeClock(n)
	w := c.w
	if events != 0 {
		w.Stats.Add(ctr, events)
	}
	if c.row != nil {
		c.row.Add(ctr.slot(), uint64(n), events)
	}
	if w.prof != nil {
		w.profLeaf(ctr.slot(), uint64(n))
	}
}

// InjectAt consumes one fault opportunity at site. When a fault fires it is
// counted and traced (an instant span named "<site>/<kind>") so every export
// can correlate injected faults with their downstream effects.
func (c *VCPU) InjectAt(site fault.Site) (fault.Kind, bool) {
	w := c.w
	if w.Fault == nil {
		return fault.None, false
	}
	kind, ok := w.Fault.At(site)
	if !ok {
		return fault.None, false
	}
	w.Stats.Inc(CtrFaultInjected)
	// The span name is only built when a tracer is listening: Emit is a
	// no-op without one, and formatting per fired fault would otherwise be
	// the injection path's only allocation.
	if w.TraceEnabled() {
		c.Emit(obs.KindFault, site.String()+"/"+kind.String(), uint64(site))
	}
	return kind, true
}

// SetTask records which guest task this vCPU is now running; subsequent
// charges and spans are attributed to it. The guest scheduler calls this on
// every dispatch; pid/tid zero resets to the machine context.
func (c *VCPU) SetTask(pid, tid int, name string, domain uint32, cloaked bool) {
	w := c.w
	if w.prof != nil {
		w.profDispatch(tid)
	}
	c.setAttr(obs.Attr{
		PID: pid, TID: tid, Task: name,
		Domain: domain, Cloaked: cloaked,
		Phase: c.attr.Phase,
	})
}

// SetTaskDomain updates the cloaking domain of the current task (the shim
// learns the domain only after its first hypercall, mid-run).
func (c *VCPU) SetTaskDomain(domain uint32) {
	a := c.attr
	a.Domain = domain
	c.setAttr(a)
}

// setAttr switches this vCPU's attribution context and, with metrics on,
// looks up the row its charges land in.
func (c *VCPU) setAttr(a obs.Attr) {
	if m := c.w.Metrics; m != nil && a != c.attr {
		c.row = m.Row(a)
	}
	c.attr = a
}

// Attr returns this vCPU's current attribution context.
func (c *VCPU) Attr() obs.Attr { return c.attr }
