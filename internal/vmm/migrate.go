package vmm

import (
	"fmt"
	"sort"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
)

// Live-migration support: the accessors the migration layer (internal/migrate)
// uses to capture a quiescent domain on the source machine and to adopt its
// sealed state on the destination. Key custody never leaves the VMM — capture
// exports only ciphertext and sealed metadata, and restore feeds ciphertext
// back through RecoverPage, so the migration layer itself never holds a
// domain key or unverified plaintext.

// ThreadState is the migration snapshot of one thread of a domain. For a
// cloaked thread parked in a trap, Regs is the *saved CTC* — the genuine
// register file the kernel never saw — not the scrubbed view the kernel
// holds; for a thread between traps it is the live register file.
type ThreadState struct {
	ID       ThreadID
	InTrap   bool
	Trap     TrapKind
	SavedCPU int
	Regs     Regs
}

// DomainThreadStates snapshots every thread of domain d, sorted by thread
// ID. Intended to run at a scheduler dispatch boundary (the migration hook),
// where no thread is mid-crossing.
func (v *VMM) DomainThreadStates(d cloak.DomainID) []ThreadState {
	var out []ThreadState
	for _, t := range v.threads {
		if t.Domain != d {
			continue
		}
		st := ThreadState{ID: t.ID, InTrap: t.inTrap, Trap: t.trap, SavedCPU: t.savedCPU}
		if t.pending {
			st.Regs = t.ctc
		} else {
			st.Regs = t.Regs
		}
		out = append(out, st)
	}
	return out
}

// ResidentPage is one memory-resident encrypted page of a domain: its sealed
// identity and metadata plus its ciphertext frame.
type ResidentPage struct {
	ID   cloak.PageID
	Meta cloak.Meta
	// Data is the guest frame itself, not a copy: it holds ciphertext only
	// until the domain next touches the page, which decrypts it in place.
	Data []byte
}

// ResidentCiphertexts returns every encrypted frame domain d still holds in
// guest memory, in PageID order. The caller must have quiesced the domain
// first (EncryptAllPlaintext): a plaintext page reaching this sweep would be
// a cloaking bug, so such pages are skipped, never exported.
//
// Each Data aliases guest memory, so the caller copies it out before the
// machine runs again and keeps no alias past that copy (migration capture
// copies each frame into its wire blob). The copy's cost is charged here, to
// the executing vCPU, like any other bulk memory move.
func (v *VMM) ResidentCiphertexts(d cloak.DomainID) []ResidentPage {
	gppns := v.domainPages(d, func(cp *cloakPage) bool { return cp.state == stateEncrypted })
	sort.Slice(gppns, func(i, j int) bool { return v.pages[gppns[i]].id.Less(v.pages[gppns[j]].id) })
	out := make([]ResidentPage, 0, len(gppns))
	for _, gppn := range gppns {
		id := v.pages[gppn].id
		meta, ok := v.metas.Get(id)
		if !ok {
			// A registered encrypted page with no metadata record cannot be
			// restored anywhere; leave the gap to the capture layer, which
			// reports it as a typed unavailability.
			continue
		}
		frame := v.frame(gppn)
		if frame == nil {
			continue
		}
		v.chargeCopy(mach.PageSize)
		out = append(out, ResidentPage{ID: id, Meta: meta, Data: frame})
	}
	return out
}

// AdoptedPage is one sealed metadata record a restore installs for a
// migrated domain.
type AdoptedPage struct {
	ID   cloak.PageID
	Meta cloak.Meta
}

// AdoptMigratedDomain installs a migrated domain's measured identity and
// sealed metadata on this (destination) VMM and reserves the domain ID so no
// locally spawned domain can collide with it — a collision would let a fresh
// local domain's version counters alias the migrated pages, poisoning the
// anti-rollback ordering. The journal is NOT written here: the restore path
// calls this first and re-seals the adopted table through persist.Resume
// once every page is verified, so the journal and the metastore adopt the
// same state exactly once each.
func (v *VMM) AdoptMigratedDomain(d cloak.DomainID, identity [32]byte, pages []AdoptedPage) error {
	if d == 0 {
		return fmt.Errorf("vmm: adopt of domain 0 (uncloaked)")
	}
	if v.quarantined[d] {
		return fmt.Errorf("vmm: adopt of quarantined domain %d refused", d)
	}
	if _, dup := v.identities[d]; dup {
		return fmt.Errorf("vmm: adopt of domain %d refused: identity already present", d)
	}
	if len(v.domainPages(d, nil)) != 0 {
		return fmt.Errorf("vmm: adopt of domain %d refused: domain has live pages", d)
	}
	if d < v.nextDomain {
		// The ID was already handed out on this machine — to a local
		// workload, a file vault, or an earlier adoption. Even a currently
		// page-less holder shares the slot's key derivation and version
		// lineage, so landing a migrated tenant on it would alias two
		// domains' anti-rollback ordering. Refused, typed.
		return fmt.Errorf("vmm: adopt of domain %d refused: ID already allocated on this machine", d)
	}
	v.ReserveDomain(d)
	v.identities[d] = identity
	for _, p := range pages {
		v.metas.Put(p.ID, p.Meta)
	}
	return nil
}

// ReserveDomain marks domain ID d as handed out, so no domain this machine
// creates later gets it. Every VMM derives domain keys from one master
// secret and draws IVs from the seed's stream, so a second holder of d
// would encrypt under d's key with IVs d's first holder already used.
func (v *VMM) ReserveDomain(d cloak.DomainID) {
	if d >= v.nextDomain {
		v.nextDomain = d + 1
	}
}

// RefuseStaleRestore records (and contains) a migration-rollback attempt: a
// restore presented a sealed checkpoint whose epoch is not fresher than the
// destination journal's. The event is logged and the target domain is
// quarantined on this machine — exactly the containment a tampered page
// gets — so repeated replay attempts find the domain already dead.
func (v *VMM) RefuseStaleRestore(d cloak.DomainID, detail string) *SecViolation {
	ev := Event{Kind: EventMigrationRollback, Domain: d, Detail: detail}
	v.logEvent(ev)
	v.quarantine(d, ev)
	return &SecViolation{Event: ev}
}
