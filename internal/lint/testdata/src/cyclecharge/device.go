// Package vmm is cyclecharge-analyzer testdata loaded under the production
// import path overshadow/internal/vmm, importing the real mach and sim
// packages so the analyzer's memory/charge primitives resolve to the same
// objects as on the production tree.
package vmm

import (
	"overshadow/internal/mach"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

type Device struct {
	mem   *mach.Memory
	world *sim.World
}

func (d *Device) BadRead(mpn mach.MPN) byte { // want `BadRead reaches guest memory without charging`
	return d.mem.Page(mpn)[0]
}

func (d *Device) GoodRead(mpn mach.MPN) byte {
	d.world.CPU().ChargeCount(d.world.Cost.MemAccess, sim.CtrMemAccess)
	return d.mem.Page(mpn)[0]
}

// The reachability is transitive: BadIndirect never names mem.Page itself.
func (d *Device) BadIndirect(mpn mach.MPN) byte { // want `BadIndirect reaches guest memory without charging`
	return d.raw(mpn)
}

// Charging through a helper counts too.
func (d *Device) GoodIndirect(mpn mach.MPN) byte {
	d.charge()
	return d.raw(mpn)
}

// Memory touched inside a function literal is attributed to the enclosing
// declaration.
func (d *Device) BadClosure(mpns []mach.MPN) int { // want `BadClosure reaches guest memory without charging`
	total := 0
	visit := func(mpn mach.MPN) { total += int(d.mem.Page(mpn)[0]) }
	for _, m := range mpns {
		visit(m)
	}
	return total
}

// Unexported helpers are internal plumbing; only the exported API surface
// must guarantee the charge.
func (d *Device) raw(mpn mach.MPN) byte { return d.mem.Page(mpn)[0] }

// charge is the helper GoodIndirect charges through.
func (d *Device) charge() { d.world.Boot().ChargeCount(1, sim.CtrMemAccess) }

// Exported but never reaches memory: not flagged.
func (d *Device) Frames() int { return 0 }

//overlint:allow cyclecharge -- testdata: deliberate exception
func (d *Device) AllowedRead(mpn mach.MPN) byte {
	return d.mem.Page(mpn)[0]
}

// ChargeAdd is a charge primitive even when the event count is zero.
func (d *Device) GoodChargeAdd(mpn mach.MPN) byte {
	d.world.Boot().ChargeAdd(d.world.Cost.MemAccess, sim.CtrMemAccess, 0)
	return d.mem.Page(mpn)[0]
}

// Span emission is observation, not charging: a function that carefully
// traces its memory touch but never charges the clock is still flagged.
func (d *Device) BadTraced(mpn mach.MPN) byte { // want `BadTraced reaches guest memory without charging`
	sp := d.world.CPU().Begin(obs.KindDisk, "read", uint64(mpn))
	defer sp.End()
	return d.mem.Page(mpn)[0]
}

// The same holds for instant events and attribution bookkeeping reached
// transitively through an unexported helper.
func (d *Device) BadEmit(mpn mach.MPN) byte { // want `BadEmit reaches guest memory without charging`
	d.observe(mpn)
	return d.raw(mpn)
}

func (d *Device) observe(mpn mach.MPN) {
	d.world.CPU().SetTaskDomain(1)
	d.world.CPU().Emit(obs.KindDisk, "touch", uint64(mpn))
}

// Profiling is never evidence of charging: a function whose memory touch is
// meticulously stack-attributed by the profiler still never advanced the
// simulated clock, so it is flagged like any other free touch.
func (d *Device) BadProfiled(mpn mach.MPN) byte { // want `BadProfiled reaches guest memory without charging`
	d.world.EnableProfile()
	sp := d.world.CPU().Begin(obs.KindDisk, "read", uint64(mpn))
	defer sp.End()
	return d.mem.Page(mpn)[0]
}

// Profiling alongside a real charge is fine — the charge is the evidence.
func (d *Device) GoodProfiled(mpn mach.MPN) byte {
	d.world.EnableProfile()
	d.world.CPU().ChargeCount(d.world.Cost.MemAccess, sim.CtrMemAccess)
	return d.mem.Page(mpn)[0]
}
