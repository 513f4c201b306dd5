package vmm

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
)

// cacheLine is the granularity at which bulk copies charge memory cost.
const cacheLine = 64

// SwitchContext models loading a different shadow context onto the
// executing vCPU (guest context switch or app/kernel crossing). With
// multi-shadowing the cost is one register write; the E10 ablations make it
// more expensive. The active-context register is per vCPU: each CPU tracks
// which shadow it has loaded independently.
func (v *VMM) SwitchContext(as *AddressSpace, view View) {
	c := v.cpu()
	ctx := as.ctxIDs[view]
	if ctx == v.activeCtxs[c.ID()] {
		return
	}
	v.activeCtxs[c.ID()] = ctx
	c.ChargeCount(v.world.Cost.ShadowSwitch, sim.CtrShadowSwitch)
	if v.opts.FlushTLBOnSwitch {
		v.tlb().Flush()
	}
	if v.opts.NoMultiShadow && view == ViewSystem && as.domain != 0 {
		// Ablation E10a: without multi-shadowing the VMM cannot keep a
		// plaintext view alive while the kernel runs; every crossing into
		// the system view eagerly encrypts the domain's plaintext pages.
		v.EncryptAllPlaintext(as.domain)
	}
	if v.introspector != nil {
		// VMI cadence: real context switches are the monitor's clock.
		v.introspector.tick()
	}
}

// EncryptAllPlaintext forces every plaintext page of a domain into the
// encrypted state. Used by the E10a ablation and by domain checkpointing.
// The sweep runs in ascending GPPN order (see domainPages).
func (v *VMM) EncryptAllPlaintext(d cloak.DomainID) int {
	gppns := v.domainPages(d, func(cp *cloakPage) bool { return cp.state == statePlain })
	for _, gppn := range gppns {
		v.encryptPage(gppn, &v.pages[gppn])
	}
	return len(gppns)
}

// Translate resolves (as, view, vpn) to a machine page, applying permission
// checks and the cloaking state machine. It returns a guest *mmu.Fault when
// the guest kernel must handle the miss (demand paging, COW), or a
// *SecViolation error when the access is denied for security reasons.
func (v *VMM) Translate(as *AddressSpace, view View, vpn uint64, access mmu.AccessType, user bool) (mach.MPN, error) {
	if len(v.quarantined) != 0 && view == ViewApp && v.quarantined[as.domain] {
		// A quarantined domain's app view is dead: every access is denied so
		// the guest kernel delivers a fatal fault to the victim process. The
		// system view stays usable — the kernel must still be able to tear
		// the process down.
		return 0, &SecViolation{Event: Event{Kind: EventQuarantine,
			Domain: as.domain, Detail: "access denied: domain is quarantined"}}
	}
	c := v.cpu()
	tlb := v.tlbs[c.ID()]
	ctx := as.ctxIDs[view]
	if pte, ok := tlb.Lookup(ctx, vpn); ok {
		//overlint:allow errnodiscipline -- a probe: a refused hit falls through to the walk, which derives the fault the guest sees
		if _, ok := mmu.CheckPerms(vpn, pte, access, user); ok {
			v.markGuestAD(as, vpn, access)
			return mach.MPN(pte.PN), nil
		}
		// Permission upgrade needed (e.g. COW write): fall through to the
		// slow path after dropping the stale entry — and shoot it down
		// everywhere, so another CPU cannot keep using the stale mapping.
		v.tlbInvalidatePage(vpn)
	}
	// TLB miss: hardware walks this vCPU's shadow page table.
	c.ChargeAdd(v.world.Cost.TLBMiss, sim.CtrTLBMiss, 0)
	pte := as.shadow(c.ID(), view).Lookup(vpn)
	//overlint:allow errnodiscipline -- a probe: a refused walk is a hidden fault, and resolveShadowFault derives the fault the guest sees
	if _, ok := mmu.CheckPerms(vpn, pte, access, user); ok {
		tlb.Insert(ctx, vpn, pte)
		v.markGuestAD(as, vpn, access)
		return mach.MPN(pte.PN), nil
	}
	// Shadow miss: hidden fault into the VMM.
	c.ChargeCount(v.world.Cost.HiddenFault, sim.CtrHiddenFault)
	mpn, err := v.resolveShadowFault(as, view, vpn, access, user)
	if err != nil {
		return 0, err
	}
	return mpn, nil
}

// markGuestAD mirrors accessed/dirty bits into the guest PTE so the guest
// kernel's paging policies see what real hardware would tell them.
func (v *VMM) markGuestAD(as *AddressSpace, vpn uint64, access mmu.AccessType) {
	extra := mmu.FlagAccessed
	if access == mmu.AccessWrite {
		extra |= mmu.FlagDirty
	}
	as.guestPT.SetFlags(vpn, extra)
}

// resolveShadowFault is the heart of the design: it consults the guest page
// table and the cloaking state machine, performs any required
// encrypt/decrypt transition, installs the shadow mapping, and retries.
func (v *VMM) resolveShadowFault(as *AddressSpace, view View, vpn uint64, access mmu.AccessType, user bool) (mach.MPN, error) {
	gpte := as.guestPT.Lookup(vpn)
	if f, ok := mmu.CheckPerms(vpn, gpte, access, user); !ok {
		// True guest fault: the guest kernel must service it (demand page,
		// COW, or segfault). Delivered by the caller. Only this copy moves
		// to the heap: taking f's address would allocate on every call.
		v.cpu().ChargeCount(v.world.Cost.GuestFault, sim.CtrGuestFault)
		delivered := f
		return 0, &delivered
	}
	gppn := mach.GPPN(gpte.PN)
	mpn, ok := v.machineOf(gppn)
	if !ok {
		// The guest PTE points beyond guest-physical memory: a corrupt or
		// malicious page table. Reported as a resource fault, not a crash.
		return 0, v.badGPPN("translate", gppn)
	}
	region := as.regionAt(vpn)

	if region != nil && region.Cloaked && as.domain != 0 {
		id := pageIdentity(as.domain, region, vpn)
		if err := v.resolveCloaked(as, view, vpn, gppn, id); err != nil {
			return 0, err
		}
	} else if cp := v.registered(gppn); cp != nil && cp.state == statePlain {
		// The OS mapped a frame holding cloaked *plaintext* somewhere
		// outside the owning domain's app view (another process, or an
		// unregistered range). Multi-shadowing demands this context see
		// only ciphertext: encrypt before mapping.
		if view != ViewApp || as.domain != cp.id.Domain {
			v.encryptPage(gppn, cp)
		}
	}

	flags := mmu.FlagPresent
	if gpte.Flags.Has(mmu.FlagWritable) {
		flags |= mmu.FlagWritable
	}
	if gpte.Flags.Has(mmu.FlagUser) && view == ViewApp {
		flags |= mmu.FlagUser
	}
	if view == ViewSystem {
		// Kernel-view mappings are kernel-only and always writable: the
		// kernel may legitimately overwrite ciphertext (page-in).
		flags = mmu.FlagPresent | mmu.FlagWritable
	}
	c := v.cpu()
	spte := mmu.PTE{PN: uint64(mpn), Flags: flags}
	as.shadow(c.ID(), view).Map(vpn, spte)
	c.ChargeCount(v.world.Cost.ShadowFill, sim.CtrShadowFill)
	v.tlbs[c.ID()].Insert(as.ctxIDs[view], vpn, spte)
	v.markGuestAD(as, vpn, access)
	return mpn, nil
}

// resolveCloaked drives the per-page state machine for an access to a
// cloaked region.
//
// Cross-CPU races on the same cloaked page — two vCPUs faulting the same
// frame, or an app-view fault landing on a CPU other than the one that last
// transitioned the page — are a typed, audited outcome (EventCrossCPUFault),
// never a panic: the baton serializes the state words, the faulting CPU
// simply re-drives the state machine, and the audit log records that the
// page moved across CPUs.
func (v *VMM) resolveCloaked(as *AddressSpace, view View, vpn uint64, gppn mach.GPPN, id cloak.PageID) error {
	cp := v.registered(gppn)
	registered := cp != nil

	switch view {
	case ViewApp:
		c := v.cpu()
		c.ChargeAdd(0, sim.CtrCloakFault, 1)
		if registered {
			if prev, crossed := cp.noteFaultCPU(c.ID()); crossed && v.world.NumVCPUs() > 1 {
				v.logEvent(Event{Kind: EventCrossCPUFault, Domain: id.Domain,
					Page: id, GPPN: gppn,
					Detail: fmt.Sprintf("app-view fault on cpu%d, last transition on cpu%d", c.ID(), prev)})
			}
		}
		switch {
		case !registered:
			// Fresh frame from the OS. Two legitimate cases: first touch of
			// this identity (no metadata -> VMM provides a zero page), or
			// page-in (frame holds ciphertext the OS restored from swap).
			if _, seen := v.metas.Get(id); seen {
				if err := v.decryptPage(gppn, id); err != nil {
					return err
				}
			} else {
				v.zeroPage(gppn)
			}
			v.registerPage(gppn, cloakPage{state: statePlain, id: id, faultCPU: c.ID()})
			v.dropAllShadowsOfGPPN(gppn) // stale system-view mappings
		case cp.state == statePlain:
			if cp.id != id {
				// Plaintext frame presented at the wrong virtual location:
				// the OS is trying to alias cloaked data.
				ev := Event{Kind: EventIdentityMismatch, Domain: id.Domain,
					Page: id, GPPN: gppn,
					Detail: "plaintext frame belongs to " + cp.id.String()}
				v.logEvent(ev)
				v.quarantine(id.Domain, ev)
				return &SecViolation{Event: ev}
			}
		default: // stateEncrypted
			if err := v.decryptPage(gppn, id); err != nil {
				return err
			}
			cp.state, cp.id = statePlain, id
			v.dropAllShadowsOfGPPN(gppn)
		}
	case ViewSystem:
		if registered && cp.state == statePlain {
			v.encryptPage(gppn, cp)
		}
		// Encrypted or unregistered frames map freely in the system view.
	}
	return nil
}

// --- Bulk virtual-memory access ------------------------------------------

// chargeCopy charges memory-system cost for n bytes moved to the executing
// vCPU.
func (v *VMM) chargeCopy(n int) {
	lines := (n + cacheLine - 1) / cacheLine
	v.cpu().ChargeAdd(sim.Cycles(lines)*v.world.Cost.MemAccess, sim.CtrMemAccess, uint64(lines))
}

// ReadVirt copies len(buf) bytes from virtual address va in (as, view) into
// buf, performing translations page by page. user marks whether the access
// carries user-mode privileges. A fault the guest kernel must service comes
// back as a bare *mmu.Fault, never wrapped, so the kernel's per-fault check
// is a type assertion; other refusals are *SecViolation or *ResourceFault.
func (v *VMM) ReadVirt(as *AddressSpace, view View, va mach.Addr, buf []byte, user bool) error {
	return v.accessVirt(as, view, va, buf, user, false)
}

// WriteVirt copies buf into virtual address va of (as, view). Its errors
// follow ReadVirt's contract: a guest fault is a bare *mmu.Fault.
func (v *VMM) WriteVirt(as *AddressSpace, view View, va mach.Addr, buf []byte, user bool) error {
	return v.accessVirt(as, view, va, buf, user, true)
}

func (v *VMM) accessVirt(as *AddressSpace, view View, va mach.Addr, buf []byte, user, write bool) error {
	access := mmu.AccessRead
	if write {
		access = mmu.AccessWrite
	}
	off := 0
	for off < len(buf) {
		vpn := mach.PageOf(va + mach.Addr(off))
		pgOff := int(mach.PageOffset(va + mach.Addr(off)))
		n := mach.PageSize - pgOff
		if n > len(buf)-off {
			n = len(buf) - off
		}
		mpn, err := v.Translate(as, view, vpn, access, user)
		if err != nil {
			return err
		}
		frame := v.mem.Page(mpn)
		if write {
			copy(frame[pgOff:pgOff+n], buf[off:off+n])
		} else {
			copy(buf[off:off+n], frame[pgOff:pgOff+n])
		}
		v.chargeCopy(n)
		off += n
	}
	return nil
}

// --- Guest-physical access (kernel's direct map) -------------------------

// PhysRead lets the guest kernel read guest-physical memory directly (its
// "direct map"). Cloaked plaintext pages are encrypted before the kernel
// sees them, exactly as for virtual accesses through the system view.
func (v *VMM) PhysRead(gppn mach.GPPN, off int, buf []byte) error {
	if err := v.physCheck(gppn, off, len(buf)); err != nil {
		return err
	}
	if cp := v.registered(gppn); cp != nil && cp.state == statePlain {
		v.encryptPage(gppn, cp)
	}
	copy(buf, v.frame(gppn)[off:off+len(buf)])
	v.chargeCopy(len(buf))
	return nil
}

// PhysWrite lets the guest kernel write guest-physical memory directly.
// Writing over cloaked plaintext forces encryption first (the write then
// corrupts ciphertext, which verification will catch — the kernel is free
// to destroy data, never to read or forge it).
func (v *VMM) PhysWrite(gppn mach.GPPN, off int, buf []byte) error {
	if err := v.physCheck(gppn, off, len(buf)); err != nil {
		return err
	}
	if cp := v.registered(gppn); cp != nil && cp.state == statePlain {
		v.encryptPage(gppn, cp)
	}
	copy(v.frame(gppn)[off:off+len(buf)], buf)
	v.chargeCopy(len(buf))
	return nil
}

func (v *VMM) physCheck(gppn mach.GPPN, off, n int) error {
	if off < 0 || n < 0 || off+n > mach.PageSize {
		return &ResourceFault{Op: "phys",
			Detail: fmt.Sprintf("access [%d,+%d) crosses the page boundary", off, n)}
	}
	if _, ok := v.machineOf(gppn); !ok {
		return v.badGPPN("phys", gppn)
	}
	return nil
}

// PhysZero zeroes a guest-physical page on behalf of the kernel (fresh
// anonymous pages). Recycling registration must already have happened.
func (v *VMM) PhysZero(gppn mach.GPPN) error {
	if err := v.physCheck(gppn, 0, 0); err != nil {
		return err
	}
	if cp := v.registered(gppn); cp != nil && cp.state == statePlain {
		v.encryptPage(gppn, cp)
	}
	v.zeroPage(gppn)
	return nil
}
