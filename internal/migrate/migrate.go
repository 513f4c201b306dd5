// Package migrate implements live migration of cloaked domains: sealed
// checkpoint-restore across simulated machines.
//
// Overshadow's protection contract is that cloaked data stays secret and
// tamper-evident while the OS — and here, the migration channel — handles
// it. Migration therefore never moves plaintext: the source VMM quiesces
// the domain (every plaintext page is encrypted in place, exactly the
// multi-shadow crossing path), checkpoints the metadata journal, and
// exports a checkpoint of ciphertext pages plus sealed metadata, the
// domain's measured identity, its saved thread contexts, and the journal
// epoch. The checkpoint is serialized as fixed-width records MAC'd under a
// migration key derived from the journal sealing key (a distinct
// derivation, so journal records can never be spliced into a checkpoint or
// vice versa) and shipped over a fault-injectable transfer channel
// (fault.SiteTransfer). The destination decodes under its own seed-derived
// key — a wrong key reads as garbage — verifies every page against its
// sealed hash before any plaintext exists, refuses stale checkpoints via
// the journal epoch (anti-rollback: a replayed checkpoint quarantines the
// target domain), and re-seals the adopted state under a strictly fresher
// epoch of its own journal.
//
// Failure directions are typed, never a panic:
//
//   - lost or torn transfer frames retry with bounded sim-clock backoff
//     (the machine's one schedule, sim.RetryAttempts and sim.RetryBackoff)
//     and then abort with ErrTransferAborted — the source keeps running,
//     unharmed;
//   - corrupted frames are delivered and refused at the destination: a
//     damaged record fails its MAC (a persist.Rejection), a damaged
//     ciphertext blob fails hash verification (typed unavailable page),
//     exactly like crash recovery;
//   - a stale checkpoint (epoch not fresher than the destination journal)
//     is refused with ErrStaleCheckpoint, audited as
//     vmm.EventMigrationRollback, and the domain quarantined.
//
// Everything is deterministic: the blob is a pure function of the source
// machine's history, transfer faults follow the seeded injector, and all
// costs are charged to the simulated clock. Experiment E16 sweeps migration
// points under load and under fire on this foundation.
package migrate

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/vmm"
)

// Typed failures. Every migration error wraps one of these sentinels so
// callers (and the E16 harness) classify outcomes without string matching.
var (
	// ErrNoJournal: the machine has no metadata journal; migration needs
	// the sealed epoch anchor and entry table it provides.
	ErrNoJournal = fmt.Errorf("migrate: machine has no metadata journal")
	// ErrQuarantined: the domain is quarantined (on the source at capture,
	// or on the destination at restore) and must not move or land.
	ErrQuarantined = fmt.Errorf("migrate: domain is quarantined")
	// ErrTransferAborted: the transfer channel kept failing past the retry
	// budget; nothing was delivered and the source is unharmed.
	ErrTransferAborted = fmt.Errorf("migrate: transfer aborted after retry budget exhausted")
	// ErrCheckpointMalformed: the blob's framing is unusable — truncated,
	// wrong length, unverifiable header or trailer, or sealed under a
	// different key. No page from such a blob is ever restored.
	ErrCheckpointMalformed = fmt.Errorf("migrate: checkpoint malformed or unverifiable")
	// ErrStaleCheckpoint: the checkpoint's epoch is not fresher than the
	// destination journal's — a replay of an old checkpoint. Refused, and
	// the target domain is quarantined on the destination.
	ErrStaleCheckpoint = fmt.Errorf("migrate: stale checkpoint refused (anti-rollback)")
)

// PageRecord is one cloaked page in a checkpoint: sealed metadata plus the
// ciphertext. When Data is nil, State says why, in crash recovery's terms —
// core.NoLocation, core.StaleLocation or core.ReadError — and travels so
// the destination can report the typed unavailability; it is zero when
// Data is set.
type PageRecord struct {
	ID    cloak.PageID
	Meta  cloak.Meta
	Data  []byte
	State core.RecoveryState
}

// Checkpoint is the in-memory form of a sealed domain checkpoint.
type Checkpoint struct {
	// Domain is the source-machine domain ID; the destination reserves it.
	Domain cloak.DomainID
	// Identity is the VMM-measured identity, preserved for attestation
	// continuity across the move.
	Identity [32]byte
	// Epoch is the source journal epoch at capture — the freshness anchor
	// the destination's anti-rollback check compares against.
	Epoch uint32
	// SrcVCPUs records the source machine's vCPU count (the destination
	// may differ; nothing in the checkpoint depends on it).
	SrcVCPUs int
	// Pages lists the domain's sealed pages in PageID order.
	Pages []PageRecord
	// Threads are the domain's thread snapshots (saved CTCs for trapped
	// threads), in thread-ID order.
	Threads []vmm.ThreadState
}
