package vmm

import (
	"fmt"
	"sort"

	"overshadow/internal/cloak"
	"overshadow/internal/fault"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/obs"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// pageState is the cloaking state of one guest-physical page.
type pageState uint8

const (
	// statePlain: the machine frame holds plaintext; only app-view mappings
	// of the owning domain may exist.
	statePlain pageState = iota
	// stateEncrypted: the machine frame holds ciphertext; only system-view
	// (and foreign) mappings may exist.
	stateEncrypted
)

// cloakPage is the VMM's registration for a guest-physical page that
// currently holds cloaked material.
type cloakPage struct {
	state pageState
	id    cloak.PageID
	// faultCPU is the vCPU that last drove a cloaking transition or app-view
	// fault on this page; a different vCPU arriving is the cross-CPU race the
	// audit log records as EventCrossCPUFault (typed outcome, never a panic).
	faultCPU int
}

// noteFaultCPU records which vCPU is driving the current transition and
// reports whether the page last moved on a different vCPU.
func (cp *cloakPage) noteFaultCPU(cpu int) (prev int, crossed bool) {
	prev = cp.faultCPU
	cp.faultCPU = cpu
	return prev, prev != cpu
}

// fileVault is the stable (domain, resource) identity of a cloaked file.
type fileVault struct {
	domain   cloak.DomainID
	resource cloak.ResourceID
}

// Options toggles the ablation knobs studied in experiment E10. The zero
// value is the full Overshadow design.
type Options struct {
	// NoMultiShadow disables per-view shadow retention: every world switch
	// between app and system context eagerly encrypts all plaintext pages
	// of the domain (ablation E10a: "encrypt on every crossing").
	NoMultiShadow bool
	// FlushTLBOnSwitch models an untagged TLB: every shadow-context switch
	// flushes the whole TLB (ablation E10d).
	FlushTLBOnSwitch bool
	// MetaCacheSize overrides the metadata cache capacity (0 = default 4096
	// records; ablation E10c sweeps this).
	MetaCacheSize int
	// TLBSize overrides the TLB capacity (0 = default 256 entries).
	TLBSize int
	// Quota bounds how much cloaking state the guest kernel can make the
	// VMM hold. Zero values mean unlimited (the historical machine).
	Quota Quota
}

// Quota caps per-domain and machine-wide cloaking resources so a hostile
// kernel mounting a spawn storm or metastore growth bomb degrades into a
// typed ResourceFault for the offending domain instead of starving its
// siblings or the VMM itself.
type Quota struct {
	// MaxDomains caps live protection domains (0 = unlimited).
	MaxDomains int
	// MaxRegionsPerDomain caps registered regions per domain — the lever
	// behind unbounded metastore growth (0 = unlimited).
	MaxRegionsPerDomain int
}

// VMM is the hypervisor. One VMM instance runs one guest.
//
// The VMM runs on whichever vCPU trapped into it, and the scheduler baton
// lets exactly one vCPU execute at a time, so the VMM-global state
// (identifier allocation, the audit log, quarantine marking) needs no lock.
// Per-vCPU state (TLBs, shadow page tables, active shadow context) is
// replicated per vCPU because each CPU has its own, not for serialization.
type VMM struct {
	world *sim.World
	opts  Options

	mem *mach.Memory
	// tlbs is one TLB per vCPU, indexed by vCPU ID.
	tlbs []*mmu.TLB

	engine *cloak.Engine
	metas  *cloak.MetaStore

	// guestPages is the guest-physical memory size. The guest owns all of
	// it from boot, exactly like a fixed-size VM, and addresses it
	// exclusively by GPPN: guest page g lives in machine frame g+1, and
	// frame 0 stays unmapped so that a zero MPN can act as "no frame".
	guestPages int

	// spaces lists the live address spaces in ascending ASID order, the
	// order every walk over all spaces visits them.
	spaces    []*AddressSpace
	nextASID  ASID
	nextCtxID uint32

	// pages registers every guest-physical page currently holding cloaked
	// material (plaintext or ciphertext).
	pages map[mach.GPPN]*cloakPage
	// byDomain indexes registrations for teardown and eager encryption.
	byDomain map[cloak.DomainID]map[mach.GPPN]*cloakPage

	nextDomain   cloak.DomainID
	nextResource cloak.ResourceID
	domainSpaces map[cloak.DomainID][]*AddressSpace
	fileVaults   map[uint64]fileVault
	identities   map[cloak.DomainID][32]byte

	threads    map[ThreadID]*Thread
	nextThread ThreadID

	// quarantined marks domains whose security violation has been contained:
	// their frames are scrubbed, CTCs revoked, metadata reclaimed, and every
	// further app-view access or hypercall is denied. The machine and all
	// other domains keep running. Lazily allocated: nil until the first
	// quarantine, so the fast-path emptiness check is one len().
	quarantined map[cloak.DomainID]bool

	// activeCtxs is the currently loaded shadow context per vCPU (for
	// switch costs), indexed by vCPU ID.
	activeCtxs []uint32

	// journal, when attached, mirrors every metadata mutation to stable
	// storage for crash recovery (see persistence.go). nil = no journaling.
	journal *persist.Journal

	// introspector, when attached, scans guest kernel objects on a context-
	// switch cadence (see introspect.go). nil = no monitoring.
	introspector *Introspector

	events []Event
}

// Config sizes the VMM and machine.
type Config struct {
	GuestPages int // size of guest "physical" memory in pages
	Options    Options
	// MasterSecret seeds the domain key hierarchy.
	MasterSecret []byte
}

// New boots a VMM over fresh machine memory, sized to back all
// guest-physical pages plus one reserved frame. A misconfigured machine
// (non-positive size) is a *ResourceFault, not a panic: the embedding host
// decides whether boot failure is fatal.
func New(world *sim.World, cfg Config) (*VMM, error) {
	if cfg.GuestPages <= 0 {
		return nil, &ResourceFault{Op: "boot",
			Detail: "GuestPages must be positive"}
	}
	secret := cfg.MasterSecret
	if secret == nil {
		secret = []byte("overshadow-default-master-secret")
	}
	metaCap := cfg.Options.MetaCacheSize
	if metaCap == 0 {
		metaCap = 4096
	}
	tlbCap := cfg.Options.TLBSize
	if tlbCap == 0 {
		tlbCap = 256
	}
	// One TLB per vCPU, each owned by (and drawing its eviction stream from)
	// its execution context.
	tlbs := make([]*mmu.TLB, world.NumVCPUs())
	for i, c := range world.VCPUs() {
		tlbs[i] = mmu.NewTLB(c, tlbCap)
	}
	v := &VMM{
		world:        world,
		opts:         cfg.Options,
		mem:          mach.NewMemory(cfg.GuestPages + 1),
		tlbs:         tlbs,
		activeCtxs:   make([]uint32, world.NumVCPUs()),
		engine:       cloak.NewEngine(world, cloak.NewMasterKeyer(secret)),
		metas:        cloak.NewMetaStore(world, metaCap),
		guestPages:   cfg.GuestPages,
		pages:        make(map[mach.GPPN]*cloakPage),
		byDomain:     make(map[cloak.DomainID]map[mach.GPPN]*cloakPage),
		domainSpaces: make(map[cloak.DomainID][]*AddressSpace),
		fileVaults:   make(map[uint64]fileVault),
		identities:   make(map[cloak.DomainID][32]byte),
		threads:      make(map[ThreadID]*Thread),
		nextDomain:   1,
		nextResource: 1,
	}
	return v, nil
}

// World exposes the simulation services (clock, stats) for read-mostly use
// by the harness.
func (v *VMM) World() *sim.World { return v.world }

// GuestPages reports the guest-physical memory size in pages.
func (v *VMM) GuestPages() int { return v.guestPages }

// Events returns a copy of the security audit log.
func (v *VMM) Events() []Event {
	out := make([]Event, len(v.events))
	copy(out, v.events)
	return out
}

// MetadataBytes reports current cloaking metadata space (experiment E7).
func (v *VMM) MetadataBytes() int { return v.metas.SpaceOverheadBytes() }

// CloakedPages reports how many guest-physical pages are currently
// registered as holding cloaked material.
func (v *VMM) CloakedPages() int { return len(v.pages) }

// DomainSpaceCount reports how many address spaces are currently bound to a
// domain. The shim destroys the domain when the last one exits.
func (v *VMM) DomainSpaceCount(d cloak.DomainID) int { return len(v.domainSpaces[d]) }

// cpu returns the currently executing vCPU — the context every VMM charge,
// span, and fault consultation belongs to (the VMM runs on whichever vCPU
// trapped into it).
func (v *VMM) cpu() *sim.VCPU { return v.world.CPU() }

// tlb returns the executing vCPU's TLB.
func (v *VMM) tlb() *mmu.TLB { return v.tlbs[v.world.CPU().ID()] }

func (v *VMM) logEvent(e Event) {
	stamped := Event{
		Time: v.world.Now(), Kind: e.Kind, Domain: e.Domain,
		Page: e.Page, GPPN: e.GPPN, Detail: e.Detail,
	}
	v.events = append(v.events, stamped)
	if e.Kind != EventCloakOnKernelAccess {
		v.cpu().Emit(obs.KindSecurity, e.Kind.String(), uint64(e.GPPN))
	}
}

// machineOf resolves a guest-physical page to its machine frame. ok is false
// when gppn lies beyond guest memory — the guest kernel handed the VMM a
// corrupt PTE or physical address, which is a reportable fault, not a
// simulator bug.
func (v *VMM) machineOf(gppn mach.GPPN) (mach.MPN, bool) {
	if gppn >= mach.GPPN(v.guestPages) {
		return 0, false
	}
	return mach.MPN(gppn + 1), true
}

// badGPPN builds the fault for an out-of-range guest-physical page and logs
// it to the audit trail.
func (v *VMM) badGPPN(op string, gppn mach.GPPN) error {
	v.logEvent(Event{Kind: EventResourceFault, GPPN: gppn,
		Detail: fmt.Sprintf("%s: GPPN %d beyond guest memory (%d pages)", op, gppn, v.guestPages)})
	return &ResourceFault{Op: op,
		Detail: fmt.Sprintf("GPPN %d beyond guest memory (%d pages)", gppn, v.guestPages)}
}

// frame returns the machine bytes backing a guest-physical page. Callers
// must have bounds-checked gppn (registration and translation both do); a
// stale registration past guest memory returns nil, which downstream copies
// treat as a no-op.
func (v *VMM) frame(gppn mach.GPPN) []byte {
	mpn, ok := v.machineOf(gppn)
	if !ok {
		return nil
	}
	return v.mem.Page(mpn)
}

// zeroPage clears the machine frame behind gppn and charges the executing
// vCPU for it. A frame the guest never touched stays unbacked, and a stale
// registration past guest memory clears nothing.
func (v *VMM) zeroPage(gppn mach.GPPN) {
	if mpn, ok := v.machineOf(gppn); ok {
		v.mem.Zero(mpn)
	}
	v.cpu().ChargeAdd(v.world.Cost.PageZero, sim.CtrPageZero, 1)
}

// --- Address-space lifecycle -------------------------------------------

// CreateAddressSpace registers a guest page table with the VMM and returns
// the handle used for all translations in that space.
func (v *VMM) CreateAddressSpace(guestPT *mmu.PageTable) *AddressSpace {
	ncpu := v.world.NumVCPUs()
	shadows := make([][numViews]*shadowTable, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		for view := range shadows[cpu] {
			shadows[cpu][view] = newShadowTable()
		}
	}
	var ctxIDs [numViews]uint32
	v.nextASID++
	id := v.nextASID
	for i := range ctxIDs {
		v.nextCtxID++
		ctxIDs[i] = v.nextCtxID
	}
	as := &AddressSpace{id: id, guestPT: guestPT, shadows: shadows, ctxIDs: ctxIDs}
	v.spaces = append(v.spaces, as) // ASIDs only grow: the list stays sorted
	return as
}

// DestroyAddressSpace drops all shadows and TLB entries for as on every
// vCPU. The caller (guest kernel) remains responsible for freeing
// guest-physical pages; the VMM only forgets its own state.
func (v *VMM) DestroyAddressSpace(as *AddressSpace) {
	for cpu := range as.shadows {
		for view := range as.shadows[cpu] {
			as.shadows[cpu][view].Clear()
		}
	}
	for i := range as.ctxIDs {
		v.tlbInvalidateContext(as.ctxIDs[i])
	}
	if as.domain != 0 {
		list := v.domainSpaces[as.domain]
		for i, q := range list {
			if q == as {
				v.domainSpaces[as.domain] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(v.domainSpaces[as.domain]) == 0 {
			// Drop the empty key: a quarantined domain's last space leaving
			// must not leave a residue entry behind.
			delete(v.domainSpaces, as.domain)
		}
	}
	for i, q := range v.spaces {
		if q == as {
			v.spaces = append(v.spaces[:i], v.spaces[i+1:]...)
			break
		}
	}
}

// --- Shadow maintenance -------------------------------------------------

// TLB shootdown: invalidations sweep every vCPU's TLB in index order. The
// initiating vCPU pays the per-entry evict cost for all drops (the TLB
// charges that internally), plus one IPI cost per *remote* TLB that actually
// held a stale entry — a lazy shootdown model: CPUs whose TLBs never cached
// the translation are not interrupted. On a single-vCPU machine no remote
// TLB exists, so no shootdown cost is ever charged and exports stay
// byte-identical to the pre-SMP machine.

// tlbInvalidatePage drops vpn from every vCPU's TLB across all contexts.
func (v *VMM) tlbInvalidatePage(vpn uint64) {
	c := v.cpu()
	for i, t := range v.tlbs {
		if t.InvalidatePage(c, vpn) > 0 && i != c.ID() {
			c.ChargeCount(v.world.Cost.TLBShootdown, sim.CtrTLBShootdown)
		}
	}
}

// tlbInvalidateRange drops [base, base+pages) from every vCPU's TLB.
func (v *VMM) tlbInvalidateRange(base, pages uint64) {
	c := v.cpu()
	for i, t := range v.tlbs {
		if t.InvalidateRange(c, base, pages) > 0 && i != c.ID() {
			c.ChargeCount(v.world.Cost.TLBShootdown, sim.CtrTLBShootdown)
		}
	}
}

// tlbInvalidateContext drops every translation tagged ctx from every vCPU's
// TLB (address-space teardown).
func (v *VMM) tlbInvalidateContext(ctx uint32) {
	c := v.cpu()
	for i, t := range v.tlbs {
		if t.InvalidateContext(c, ctx) > 0 && i != c.ID() {
			c.ChargeCount(v.world.Cost.TLBShootdown, sim.CtrTLBShootdown)
		}
	}
}

// dropShadowsFor removes vpn from the given views of as on every vCPU and
// invalidates the TLBs for that page across all contexts.
func (v *VMM) dropShadowsFor(as *AddressSpace, vpn uint64, views ...View) {
	for _, view := range views {
		for cpu := range as.shadows {
			sh := as.shadows[cpu][view]
			if sh.Lookup(vpn).Present() {
				sh.Unmap(vpn)
				v.cpu().ChargeCount(v.world.Cost.ShadowDrop, sim.CtrShadowDrop)
			}
		}
	}
	v.tlbInvalidatePage(vpn)
}

// dropShadowsRange removes the whole VPN range [base, base+pages) from both
// views of as on every vCPU, then invalidates the TLBs for the range in one
// pass instead of one full-table scan per page. Charges are identical to
// calling dropShadowsFor per VPN — same per-entry ShadowDrop and TLBEvict
// counts — only the host-side work is batched.
func (v *VMM) dropShadowsRange(as *AddressSpace, base, pages uint64) {
	for view := View(0); view < numViews; view++ {
		for cpu := range as.shadows {
			sh := as.shadows[cpu][view]
			for vpn := base; vpn < base+pages; vpn++ {
				if sh.Lookup(vpn).Present() {
					sh.Unmap(vpn)
					v.cpu().ChargeCount(v.world.Cost.ShadowDrop, sim.CtrShadowDrop)
				}
			}
		}
	}
	v.tlbInvalidateRange(base, pages)
}

// dropAllShadowsOfGPPN removes every shadow mapping (any space, any vCPU,
// any view) that points at gppn. Needed when a page changes cloak state:
// stale mappings in other views/spaces would bypass the state machine. Each
// table's backmap names the VPNs to drop; the walk visits spaces in ASID
// order and each table's VPNs in ascending order, so a crash deadline landing
// inside it leaves the same counters on every host.
func (v *VMM) dropAllShadowsOfGPPN(gppn mach.GPPN) {
	m, ok := v.machineOf(gppn)
	if !ok {
		return
	}
	mpn := uint64(m)
	for _, as := range v.spaces {
		for view := View(0); view < numViews; view++ {
			for cpu := range as.shadows {
				sh := as.shadows[cpu][view]
				for vpn, ok := sh.firstMapper(mpn); ok; vpn, ok = sh.firstMapper(mpn) {
					sh.Unmap(vpn)
					v.cpu().ChargeCount(v.world.Cost.ShadowDrop, sim.CtrShadowDrop)
					v.tlbInvalidatePage(vpn)
				}
			}
		}
	}
}

// InvalidateGuestMapping must be called by the guest kernel whenever it
// changes a guest PTE (unmap, protection change, remap). It plays the role
// of the write traces a real shadow-paging VMM places on guest page tables.
func (v *VMM) InvalidateGuestMapping(as *AddressSpace, vpn uint64) {
	v.dropShadowsFor(as, vpn, ViewApp, ViewSystem)
}

// NotifyFrameRecycled must be called by the guest kernel when it frees a
// guest-physical page for reuse. Any cloak registration for the old use is
// dropped; the *metadata* for the page's identity survives in the metadata
// store, so discarding a dirty cloaked page without writing it out is still
// detected when the application next faults on that data.
func (v *VMM) NotifyFrameRecycled(gppn mach.GPPN) {
	if cp, ok := v.pages[gppn]; ok {
		if cp.state == statePlain {
			// Never let cloaked plaintext linger in a recycled frame.
			v.zeroPage(gppn)
		}
		v.unregisterPage(gppn, cp)
		v.dropAllShadowsOfGPPN(gppn)
	}
}

func (v *VMM) registerPage(gppn mach.GPPN, cp *cloakPage) {
	v.pages[gppn] = cp
	m := v.byDomain[cp.id.Domain]
	if m == nil {
		m = make(map[mach.GPPN]*cloakPage)
		v.byDomain[cp.id.Domain] = m
	}
	m[gppn] = cp
}

func (v *VMM) unregisterPage(gppn mach.GPPN, cp *cloakPage) {
	delete(v.pages, gppn)
	if m := v.byDomain[cp.id.Domain]; m != nil {
		delete(m, gppn)
	}
}

// domainPages returns the GPPNs registered to domain d whose page satisfies
// keep (nil keeps all), in ascending order. Every walk over a domain's pages
// that charges, traces or journals runs in this order: map iteration order
// would leak host nondeterminism into spans, IV assignment, the journal, and
// the counters a crash deadline leaves behind.
func (v *VMM) domainPages(d cloak.DomainID, keep func(*cloakPage) bool) []mach.GPPN {
	pages := v.byDomain[d]
	gppns := make([]mach.GPPN, 0, len(pages))
	for gppn, cp := range pages {
		if keep == nil || keep(cp) {
			gppns = append(gppns, gppn)
		}
	}
	sort.Slice(gppns, func(i, j int) bool { return gppns[i] < gppns[j] })
	return gppns
}

// scrubDomain zeroes every frame holding domain d's plaintext, drops all
// shadow mappings of its registered pages and unregisters them (domain
// teardown and quarantine).
func (v *VMM) scrubDomain(d cloak.DomainID) {
	pages := v.byDomain[d]
	for _, gppn := range v.domainPages(d, nil) {
		if pages[gppn].state == statePlain {
			v.zeroPage(gppn)
		}
		v.dropAllShadowsOfGPPN(gppn)
		delete(v.pages, gppn)
	}
	delete(v.byDomain, d)
}

// encryptPage transitions a plaintext cloaked page to the encrypted state.
func (v *VMM) encryptPage(gppn mach.GPPN, cp *cloakPage, why string) {
	sp := v.cpu().Begin(obs.KindCloak, "encrypt", uint64(gppn))
	frame := v.frame(gppn)
	id := cp.id
	meta := v.engine.EncryptPage(id, v.metas.Version(id), frame)
	v.metas.Put(id, meta)
	v.jPut(id, meta)
	cp.state = stateEncrypted
	v.dropAllShadowsOfGPPN(gppn)
	sp.End()
	v.logEvent(Event{
		Kind: EventCloakOnKernelAccess, Domain: id.Domain,
		Page: id, GPPN: gppn, Detail: why,
	})
}

// decryptPage transitions an encrypted frame to plaintext for identity id,
// verifying integrity and freshness. The caller supplies the identity
// derived from the faulting virtual address. Any verification failure —
// genuine tampering, an injected metadata corruption, or a forced mismatch —
// quarantines the page's domain before the violation is returned.
func (v *VMM) decryptPage(gppn mach.GPPN, id cloak.PageID) error {
	if _, ok := v.cpu().InjectAt(fault.SiteIntegrity); ok {
		// Forced integrity mismatch: the check itself is made to fail, as if
		// the stored hash and the frame could never agree.
		ev := Event{Kind: EventIntegrityViolation, Domain: id.Domain, Page: id,
			GPPN: gppn, Detail: "injected: forced integrity-check mismatch"}
		v.logEvent(ev)
		v.quarantine(id.Domain, ev)
		return &SecViolation{Event: ev}
	}
	meta, ok := v.metas.Get(id)
	if !ok {
		// No record: this identity was never encrypted, yet the frame is
		// supposed to carry its ciphertext. The OS substituted garbage.
		ev := Event{Kind: EventIntegrityViolation, Domain: id.Domain, Page: id,
			GPPN: gppn, Detail: "no metadata record for identity"}
		v.logEvent(ev)
		v.quarantine(id.Domain, ev)
		return &SecViolation{Event: ev}
	}
	if kind, ok := v.cpu().InjectAt(fault.SiteMetaTamper); ok && kind != fault.None {
		// Metadata tampering: the record consulted for this decrypt is
		// damaged in flight. The store's copy is untouched — only this
		// lookup sees the corruption, and verification below catches it.
		v.world.Fault.Corrupt(meta.Hash[:])
	}
	frame := v.frame(gppn)
	sp := v.cpu().Begin(obs.KindCloak, "decrypt", uint64(gppn))
	defer sp.End()
	if err := v.engine.DecryptPage(id, meta, frame); err != nil {
		ev := Event{Kind: EventIntegrityViolation, Domain: id.Domain, Page: id,
			GPPN: gppn, Detail: err.Error()}
		v.logEvent(ev)
		v.quarantine(id.Domain, ev)
		return &SecViolation{Event: ev}
	}
	return nil
}
