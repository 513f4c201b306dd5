package migrate

import (
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Report is the outcome of restoring a checkpoint on a destination machine:
// per-page fates plus a full account of everything refused.
type Report struct {
	// Domain is the migrated domain ID, now reserved on the destination.
	Domain cloak.DomainID
	// Identity is the measured identity carried across; attestation on the
	// destination answers with the same digest the source measured.
	Identity [32]byte
	// Epoch is the checkpoint's (source) epoch; the destination journal is
	// committed at Epoch+1 immediately, so replaying this same checkpoint
	// is refused as stale from now on.
	Epoch uint32
	// SrcVCPUs echoes the source machine's vCPU count.
	SrcVCPUs int
	// Rejections lists every checkpoint record refused at decode.
	persist.Rejections
	// PageTally holds the per-page outcomes in checkpoint (PageID) order;
	// exactly the crash-recovery classification, and plaintext appears
	// only in Data of pages that decrypted and verified against the sealed
	// hash.
	core.PageTally
	// Threads are the thread snapshots that survived decode.
	Threads []vmm.ThreadState
	// RestoreCycles is the simulated time the destination spent decoding,
	// verifying, and re-sealing.
	RestoreCycles sim.Cycles
}

// Restore lands a transferred checkpoint on dst. The blob is decoded under
// dst's own seed-derived migration key (source and destination must share
// the seed — i.e. the sealed-storage trust root — or every record reads as
// garbage), each surviving page is verified against its sealed hash before
// any plaintext exists, and the adopted table is re-sealed under a strictly
// fresher epoch of dst's journal, with the domain ID and measured identity
// reserved on dst's VMM.
//
// Freshness is enforced both ways: a checkpoint whose epoch is not ahead of
// dst's journal is refused with ErrStaleCheckpoint, audited as a
// migration-rollback event, and the target domain quarantined (replaying an
// old checkpoint is the migration-channel form of the rollback attack); and
// a successful restore immediately commits dst's journal at Epoch+1, so
// re-presenting the same blob afterwards is refused too. Failure at any
// point is typed and leaves no plaintext behind — unverifiable pages are
// reported exactly like crash recovery's unavailable pages.
func Restore(dst *core.System, blob []byte) (*Report, error) {
	if dst.Journal == nil {
		return nil, fmt.Errorf("%w: restore", ErrNoJournal)
	}
	start := dst.World.Now()
	key := SealKeyFor(persist.SealKey(dst.Seed()))
	ckpt, rejs, err := Decode(blob, key)
	if err != nil {
		return nil, err
	}
	d := ckpt.Domain
	if d == 0 {
		return nil, fmt.Errorf("%w: checkpoint names domain 0", ErrCheckpointMalformed)
	}
	if dst.VMM.Quarantined(d) {
		return nil, fmt.Errorf("%w: restore of domain %d", ErrQuarantined, d)
	}
	if ckpt.Epoch <= dst.Journal.Epoch() {
		sv := dst.VMM.RefuseStaleRestore(d, fmt.Sprintf(
			"checkpoint epoch %d not fresher than destination epoch %d",
			ckpt.Epoch, dst.Journal.Epoch()))
		return nil, fmt.Errorf("%w: %v", ErrStaleCheckpoint, sv)
	}

	// Reserve the domain and adopt its sealed metadata into the metastore.
	// This fails — before anything else changes — if the ID collides with
	// live local state or the identity slot is taken.
	adopted := make([]vmm.AdoptedPage, 0, len(ckpt.Pages))
	for _, p := range ckpt.Pages {
		adopted = append(adopted, vmm.AdoptedPage{ID: p.ID, Meta: p.Meta})
	}
	if aerr := dst.VMM.AdoptMigratedDomain(d, ckpt.Identity, adopted); aerr != nil {
		return nil, aerr
	}

	rep := &Report{
		Domain:     d,
		Identity:   ckpt.Identity,
		Epoch:      ckpt.Epoch,
		SrcVCPUs:   ckpt.SrcVCPUs,
		Rejections: rejs,
		Threads:    ckpt.Threads,
	}

	// Verify every delivered ciphertext page against its sealed metadata.
	// Plaintext appears in exactly one place: PageOutcome.Data of pages
	// that decrypted and verified. Ciphertext is never written to dst's
	// disks — the resumed workload re-creates its state through the
	// ordinary cloaking path.
	for _, p := range ckpt.Pages {
		rep.Verify(dst.VMM, p.ID, p.Meta, p.Data, p.State, nil)
	}

	// Re-seal: dst's journal adopts its own live entries plus the migrated
	// table and commits at ckpt.Epoch+1 — strictly fresher than both sides,
	// which is what makes the replay of this same checkpoint refusable.
	base, blocks := dst.Journal.Range()
	table := make(map[cloak.PageID]persist.Entry)
	for _, te := range dst.Journal.Entries() {
		table[te.ID] = te.Entry
	}
	for _, p := range ckpt.Pages {
		table[p.ID] = persist.Entry{Meta: p.Meta, HasMeta: true}
	}
	opts := dst.PersistOptions()
	j, jerr := persist.Resume(dst.World, dst.Kernel.SwapDisk(), base, blocks,
		persist.SealKey(dst.Seed()), *opts, &persist.Result{Anchored: true, Epoch: ckpt.Epoch, Table: table})
	if jerr != nil {
		return nil, jerr
	}
	dst.VMM.AttachJournal(j)
	dst.Journal = j

	rep.RestoreCycles = dst.World.Now() - start
	return rep, nil
}
