package vmm

import (
	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// Journal attachment: when a metadata journal is present, every mutation of
// the VMM's cloaking metadata is mirrored into it, so a whole-machine crash
// can be recovered from the (untrusted, fault-injectable) disk. All hooks
// are nil-guarded no-ops when no journal is attached — journal-free
// configurations charge zero extra cycles and write zero extra bytes,
// keeping all existing experiment exports byte-identical.

// AttachJournal mirrors all future metadata mutations into j. Must be
// called before the machine runs.
func (v *VMM) AttachJournal(j *persist.Journal) { v.journal = j }

func (v *VMM) jPut(id cloak.PageID, m cloak.Meta) {
	if v.journal == nil {
		return
	}
	was := v.journal.DomainWedged(id.Domain)
	v.journal.Put(id, m)
	if !was && v.journal.DomainWedged(id.Domain) {
		// The put crossed this domain's journal quota: its sealed state is
		// gone (typed availability loss at replay) but siblings — and the
		// shared journal — keep running. Surface it in the audit log; the
		// journal itself has no event channel.
		v.logEvent(Event{
			Kind:   EventResourceFault,
			Domain: id.Domain,
			Detail: "journal: per-domain quota exhausted; domain journaling wedged",
		})
	}
}

func (v *VMM) jDelete(id cloak.PageID) {
	if v.journal != nil {
		v.journal.Delete(id)
	}
}

func (v *VMM) jDropDomain(d cloak.DomainID) {
	if v.journal != nil {
		v.journal.DropDomain(d)
	}
}

// NoteSwapSlot records that the guest kernel persisted the current
// ciphertext of guest-physical page gppn at swap block blk. The location is
// an untrusted hint — recovery re-verifies the payload against the sealed
// hash — so a lying kernel can cost availability, never secrecy or
// integrity. Only encrypted registered pages are noted: a plaintext page
// reaching the swap path would be a cloaking bug, not a location.
func (v *VMM) NoteSwapSlot(gppn mach.GPPN, blk uint64) {
	if v.journal == nil {
		return
	}
	cp := v.registered(gppn)
	if cp == nil || cp.state != stateEncrypted {
		return
	}
	id := cp.id
	was := v.journal.DomainWedged(id.Domain)
	v.journal.Locate(id, persist.DevSwap, blk, v.metas.Version(id))
	if !was && v.journal.DomainWedged(id.Domain) {
		v.logEvent(Event{
			Kind:   EventResourceFault,
			Domain: id.Domain,
			Detail: "journal: per-domain quota exhausted; domain journaling wedged",
		})
	}
}

// RecoverPage verifies and decrypts a journaled page on behalf of the
// recovery path: meta comes from the replayed journal, ciphertext from the
// surviving disk or a migration blob. The ciphertext is verified where it
// lies and never written; the plaintext is decrypted straight into a fresh
// buffer, the page's one host copy. Failure is the typed
// *cloak.ErrIntegrity. Key custody stays inside the VMM — the recovery code
// never sees domain keys, only verified plaintext or an error.
func (v *VMM) RecoverPage(id cloak.PageID, meta cloak.Meta, ciphertext []byte) ([]byte, error) {
	buf := make([]byte, len(ciphertext))
	if err := v.engine.DecryptPageTo(id, meta, buf, ciphertext); err != nil {
		return nil, err
	}
	v.cpu().ChargeAdd(0, sim.CtrRecoverPage, 1)
	return buf, nil
}
