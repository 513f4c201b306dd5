package vmm

import (
	"sort"

	"overshadow/internal/cloak"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// Quarantine is the containment half of the protection story: detection of a
// security violation (integrity mismatch, identity aliasing, metadata
// tampering) must terminate only the offending domain, never the machine.
// Quarantining a domain:
//
//   - scrubs every machine frame that holds its plaintext and drops all
//     shadow mappings of its registered pages,
//   - revokes the saved cloaked thread contexts of its threads, so no
//     quarantined thread can ever be resumed with live state,
//   - reclaims its metadata records and measured identity,
//   - leaves its address spaces *bound* to the dead domain, so every further
//     app-view access or hypercall is denied (ErrNoDomain / SecViolation)
//     instead of silently re-creating state.
//
// The guest kernel observes the denial as a fatal fault against the victim
// process and kills it; sibling domains and uncloaked processes never notice.

// Quarantined reports whether d has been quarantined.
func (v *VMM) Quarantined(d cloak.DomainID) bool { return v.quarantined[d] }

// QuarantineResidue reports what the VMM still holds for domain d: registered
// cloaked pages, metadata records, and threads with a live saved CTC. After a
// quarantine all three must be zero — the property test for resource
// reclamation asserts exactly this.
func (v *VMM) QuarantineResidue(d cloak.DomainID) (pages, metaRecords, liveCTCs int) {
	pages = len(v.byDomain[d])
	metaRecords = v.metas.DomainRecords(d)
	for _, t := range v.threads {
		if t.Domain == d && t.pending {
			liveCTCs++
		}
	}
	return pages, metaRecords, liveCTCs
}

// quarantine contains domain d after the security violation described by
// cause. Idempotent; domain 0 (uncloaked) is never quarantined.
func (v *VMM) quarantine(d cloak.DomainID, cause Event) {
	if d == 0 || v.quarantined[d] {
		return
	}
	if v.quarantined == nil {
		v.quarantined = make(map[cloak.DomainID]bool)
	}
	v.quarantined[d] = true
	sp := v.cpu().Begin(obs.KindQuarantine, "quarantine", uint64(d))
	defer sp.End()

	v.scrubDomain(d)

	// Revoke saved thread contexts: a quarantined thread must never resume
	// with its genuine registers. Sorted by thread ID for the same
	// determinism reason as the frame sweep.
	tids := make([]ThreadID, 0, len(v.threads))
	for id, t := range v.threads {
		if t.Domain == d {
			tids = append(tids, id)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, id := range tids {
		v.threads[id].revoke()
	}

	// Reclaim metadata and the measured identity. Unlike Destroy, the
	// address spaces stay bound to the dead domain so further access is
	// denied rather than reinterpreted as uncloaked.
	v.metas.DeleteDomain(d)
	v.jDropDomain(d)
	delete(v.identities, d)

	v.cpu().ChargeAdd(0, sim.CtrQuarantine, 1)
	v.logEvent(Event{Kind: EventQuarantine, Domain: d, Page: cause.Page,
		GPPN: cause.GPPN, Detail: "contained after " + cause.Kind.String()})
}
