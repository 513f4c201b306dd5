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
	out := make([]ThreadState, 0, len(v.threads))
	//overlint:allow determinism -- threads are collected then sorted by ID before use
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
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ResidentPage is one memory-resident encrypted page of a domain: its sealed
// identity and metadata plus a copy of the ciphertext frame.
type ResidentPage struct {
	ID   cloak.PageID
	Meta cloak.Meta
	Data []byte
}

// ResidentCiphertexts returns copies of every encrypted frame domain d still
// holds in guest memory, in PageID order. The caller must have quiesced the
// domain first (EncryptAllPlaintext): a plaintext page reaching this sweep
// would be a cloaking bug, so such pages are skipped, never exported. Copy
// cost is charged to the executing vCPU like any other bulk memory move.
func (v *VMM) ResidentCiphertexts(d cloak.DomainID) []ResidentPage {
	type resident struct {
		gppn mach.GPPN
		cp   *cloakPage
	}
	regs := make([]resident, 0, len(v.byDomain[d]))
	//overlint:allow determinism -- registrations are collected then sorted before use
	for gppn, cp := range v.byDomain[d] {
		if cp.state == stateEncrypted {
			regs = append(regs, resident{gppn, cp})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		return regs[i].cp.id.Less(regs[j].cp.id)
	})
	out := make([]ResidentPage, 0, len(regs))
	for _, r := range regs {
		id := r.cp.id
		meta, ok := v.metas.Get(id)
		if !ok {
			// A registered encrypted page with no metadata record cannot be
			// restored anywhere; leave the gap to the capture layer, which
			// reports it as a typed unavailability.
			continue
		}
		frame := v.frame(r.gppn)
		if frame == nil {
			continue
		}
		data := make([]byte, mach.PageSize)
		copy(data, frame)
		v.chargeCopy(mach.PageSize)
		out = append(out, ResidentPage{ID: id, Meta: meta, Data: data})
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
// re-seals the adopted table through persist.Resume before calling this, so
// the journal and the metastore adopt the same state exactly once each.
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
	if len(v.byDomain[d]) != 0 {
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
	v.nextDomain = d + 1
	v.identities[d] = identity
	for _, p := range pages {
		v.metas.Put(p.ID, p.Meta)
	}
	return nil
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
