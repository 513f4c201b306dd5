package vmm

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/sim"
)

// EventKind classifies security-relevant observations the VMM makes.
type EventKind uint8

// Security event kinds.
const (
	// EventIntegrityViolation: a cloaked page failed hash verification —
	// tampering, substitution, or replay by the OS.
	EventIntegrityViolation EventKind = iota
	// EventIdentityMismatch: the OS presented a plaintext cloaked frame at
	// the wrong virtual location (page remapping attack).
	EventIdentityMismatch
	// EventCTCTamper: the kernel attempted to resume a cloaked thread with
	// a corrupted context.
	EventCTCTamper
	// EventResourceFault: a non-security resource failure (bad guest PTE
	// target, transient hypercall fault) was reported instead of panicking.
	EventResourceFault
	// EventQuarantine: a domain was quarantined — its frames scrubbed, CTC
	// entries revoked, and metadata reclaimed — after a security violation.
	EventQuarantine
	// EventCrossCPUFault: informational — an app-view fault on a cloaked page
	// arrived on a different vCPU than the one that last transitioned it. Not
	// an attack (thread migration does this legitimately); the typed outcome
	// for the two-CPUs-race-one-page interleaving. Only ever logged on a
	// multi-vCPU machine.
	EventCrossCPUFault
	// EventCTCMigrate: informational — a cloaked thread context saved on one
	// vCPU was resumed on another (CTC handoff across CPUs). Verification
	// still ran; the entry records the migration. Multi-vCPU machines only.
	EventCTCMigrate
	// EventIagoRejected: the shim's validation layer rejected a
	// kernel-controlled syscall return value (Iago attack: a lying address,
	// length, or descriptor aimed at the trusted marshalling code). The
	// forged value was never dereferenced.
	EventIagoRejected
	// EventIntrospectDiverge: the hypervisor-side introspection monitor
	// found the guest kernel's claimed object state (run queues, region
	// tables) diverging from VMM ground truth — a hidden task, a phantom
	// task in a dead domain, or an unclaimed cloaked region.
	EventIntrospectDiverge
	// EventMigrationRollback: a live-migration restore presented a sealed
	// checkpoint whose epoch is not fresher than the destination journal's —
	// a replayed (stale) checkpoint, the migration-channel form of the
	// anti-rollback attack. The restore was refused and the target domain
	// quarantined on the destination.
	EventMigrationRollback
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventIntegrityViolation:
		return "integrity-violation"
	case EventIdentityMismatch:
		return "identity-mismatch"
	case EventCTCTamper:
		return "ctc-tamper"
	case EventResourceFault:
		return "resource-fault"
	case EventQuarantine:
		return "quarantine"
	case EventCrossCPUFault:
		return "cross-cpu-fault"
	case EventCTCMigrate:
		return "ctc-migrate"
	case EventIagoRejected:
		return "iago-rejected"
	case EventIntrospectDiverge:
		return "introspect-diverge"
	case EventMigrationRollback:
		return "migration-rollback"
	}
	return "unknown"
}

// Event is one entry in the VMM's security audit log. Events are immutable
// once stamped: logEvent builds the stored copy in a single composite
// literal and appends it to the log.
type Event struct {
	Time   sim.Cycles
	Kind   EventKind
	Domain cloak.DomainID
	Page   cloak.PageID
	GPPN   mach.GPPN
	Detail string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("[%d] %s dom=%d page=%s gppn=%d %s",
		uint64(e.Time), e.Kind, e.Domain, e.Page, e.GPPN, e.Detail)
}

// SecViolation is the error the translation path returns when an access is
// denied for security reasons (as opposed to an ordinary page fault). The
// guest kernel cannot "handle" it; the process is compromised and must be
// terminated.
type SecViolation struct {
	Event Event
}

// Error implements the error interface.
func (s *SecViolation) Error() string {
	return "vmm: security violation: " + s.Event.String()
}
