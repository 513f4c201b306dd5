package persist

import (
	"fmt"
	"slices"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// Options tunes the journal writer. The zero value is usable.
type Options struct {
	// CheckpointEvery forces a checkpoint after this many appended log
	// records (default 64). Smaller values shrink the replay window at the
	// price of more checkpoint I/O.
	CheckpointEvery int
	// PerDomainEntries caps live journal entries per domain (0 = unlimited).
	// A domain that exceeds it — a hostile kernel flooding appends or
	// growing the metastore without bound — is wedged *individually*: its
	// sealed state is dropped (typed availability loss at replay) and its
	// further mutations are ignored, while every other domain keeps
	// journaling. Without the quota a single flooder fills the reserved
	// range and wedges the shared journal for all domains at once.
	PerDomainEntries int
}

// Geometry describes the reserved block range:
//
//	base+0              superblock slot A (committed by even epochs)
//	base+1              superblock slot B (committed by odd epochs)
//	base+2 ..           checkpoint slot A (ckptBlocks blocks, even epochs)
//	.. +ckptBlocks      checkpoint slot B (ckptBlocks blocks, odd epochs)
//	rest                append-only log area
//
// Alternating slots mean a crash mid-checkpoint can never destroy the last
// committed checkpoint: the new epoch writes into the other slot and only
// becomes real when its superblock lands.
const (
	superSlots = 2
	// MinBlocks is the smallest usable journal: two superblocks, two
	// one-block checkpoint slots, and at least one log block.
	MinBlocks = superSlots + 2 + 1
)

// Journal is the writer half: the VMM appends a sealed record for every
// metadata mutation and periodically checkpoints the full table. All I/O
// goes through the (fault-injectable) disk, so torn and failed journal
// writes are part of the deterministic fault schedule.
type Journal struct {
	world *sim.World
	disk  *mach.Disk
	seal  *Sealer // this journal's own: never shared with another writer
	opts  Options

	base       uint64 // first reserved block
	blocks     uint64 // reserved range length
	ckptBlocks uint64 // blocks per checkpoint slot
	logStart   uint64 // absolute block index of the log area
	logBlocks  uint64

	// table is the writer's in-memory truth: what a fully successful replay
	// of the on-disk journal should reconstruct.
	table Table

	epoch     uint32               // current committed epoch
	seq       uint64               // next log record sequence number within epoch
	sinceCkpt int                  // appends since the last checkpoint
	tail      [mach.BlockSize]byte // image of the current tail log block
	tailBlock uint64               // absolute index of the tail block, 0 = none
	img       [mach.BlockSize]byte // checkpoint and superblock image, reused

	wedged    bool
	writeErrs int

	// Domains that overflowed the per-domain quota (allocated only when the
	// quota is set). A domain's live count is its run in the table.
	domainWedged map[cloak.DomainID]bool

	// Marks: the simulated cycle at which each append / checkpoint began.
	// E14 derives its mid-append and mid-checkpoint crash points from these.
	appendMarks []sim.Cycles
	ckptMarks   []sim.Cycles
}

// newJournal builds the writer without touching the disk.
func newJournal(world *sim.World, disk *mach.Disk, base, blocks uint64, key [32]byte, opts Options) (*Journal, error) {
	if blocks < MinBlocks {
		return nil, fmt.Errorf("persist: journal needs >= %d blocks, got %d", MinBlocks, blocks)
	}
	if base+blocks > disk.NumBlocks() {
		return nil, fmt.Errorf("persist: journal range [%d,%d) beyond device (%d blocks)",
			base, base+blocks, disk.NumBlocks())
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 64
	}
	ckpt := (blocks - superSlots) / 4
	if ckpt == 0 {
		ckpt = 1
	}
	j := &Journal{
		world:      world,
		disk:       disk,
		seal:       NewSealer(key),
		opts:       opts,
		base:       base,
		blocks:     blocks,
		ckptBlocks: ckpt,
		logStart:   base + superSlots + 2*ckpt,
		logBlocks:  blocks - superSlots - 2*ckpt,
	}
	if opts.PerDomainEntries > 0 {
		j.domainWedged = make(map[cloak.DomainID]bool)
	}
	return j, nil
}

// NewJournal formats the reserved range [base, base+blocks) of disk and
// returns a writer sealed with key. Formatting writes an initial empty
// checkpoint (epoch 1) so replay always has an anchor superblock.
func NewJournal(world *sim.World, disk *mach.Disk, base, blocks uint64, key [32]byte, opts Options) (*Journal, error) {
	j, err := newJournal(world, disk, base, blocks, key, opts)
	if err != nil {
		return nil, err
	}
	// Epoch 0 is never committed; the format checkpoint commits epoch 1 so a
	// replayed superblock with epoch 0 is unambiguously invalid.
	j.checkpoint()
	return j, nil
}

// Resume reopens a journal over a replayed table: it adopts table, without
// copying it, as the state committed at epoch and immediately re-seals it
// under a strictly fresher epoch, so the next replay anchors on the
// recovered state rather than the crashed tail — and a rollback to the
// pre-crash superblock is detectably stale.
func Resume(world *sim.World, disk *mach.Disk, base, blocks uint64, key [32]byte, opts Options, epoch uint32, table Table) (*Journal, error) {
	j, err := newJournal(world, disk, base, blocks, key, opts)
	if err != nil {
		return nil, err
	}
	j.epoch = epoch // next checkpoint commits epoch+1
	j.table = table
	j.checkpoint()
	return j, nil
}

// Wedged reports whether the journal stopped persisting (range overflow).
func (j *Journal) Wedged() bool { return j.wedged }

// DomainWedged reports whether domain d individually exceeded its quota and
// lost journaling (its sealed state is gone; siblings are unaffected).
func (j *Journal) DomainWedged(d cloak.DomainID) bool { return j.domainWedged[d] }

// admit applies the per-domain quota to a Put or Locate of id, reporting
// whether it may proceed. Updating a live entry adds no growth; a new entry
// is refused once the domain's run in the table reaches the quota, and that
// growth wedges the offending domain only: its state is dropped and further
// mutations are ignored.
func (j *Journal) admit(id cloak.PageID) bool {
	if j.opts.PerDomainEntries <= 0 {
		return true
	}
	if j.domainWedged[id.Domain] {
		return false
	}
	if _, live := j.table.find(id); live {
		return true
	}
	if lo, hi := j.table.domainRun(id.Domain); hi-lo >= j.opts.PerDomainEntries {
		j.wedgeDomain(id.Domain)
		return false
	}
	return true
}

// wedgeDomain contains a quota overflow to its domain: drop the domain's
// sealed state (its pages become typed-unavailable at replay, never silently
// stale) and stop accepting its mutations. The shared journal — and every
// sibling domain — keeps running.
func (j *Journal) wedgeDomain(d cloak.DomainID) {
	j.domainWedged[d] = true
	j.world.CPU().ChargeCount(0, sim.CtrJournalDomainWedged)
	j.mutate(Record{Kind: KindDomainGone, ID: cloak.PageID{Domain: d}})
}

// WriteErrs reports how many journal block writes failed (injected faults).
func (j *Journal) WriteErrs() int { return j.writeErrs }

// Epoch reports the current committed epoch.
func (j *Journal) Epoch() uint32 { return j.epoch }

// Range reports the reserved block range, for replay after a crash.
func (j *Journal) Range() (base, blocks uint64) { return j.base, j.blocks }

// Marks returns the simulated cycles at which appends and checkpoints
// began. Slices are live views; callers must not mutate them.
func (j *Journal) Marks() (appends, checkpoints []sim.Cycles) {
	return j.appendMarks, j.ckptMarks
}

// Entries returns a copy of the live table.
func (j *Journal) Entries() Table { return slices.Clone(j.table) }

// Put journals a page's new metadata record.
func (j *Journal) Put(id cloak.PageID, m cloak.Meta) {
	j.mutate(Record{Kind: KindPut, ID: id, Version: m.Version, IV: m.IV, Hash: m.Hash})
}

// Locate journals where the ciphertext of a page version landed on stable
// storage. The location is a hint from the untrusted kernel: replay
// re-verifies the payload against the sealed hash, so a wrong location can
// only cost availability.
func (j *Journal) Locate(id cloak.PageID, dev uint8, block, version uint64) {
	j.mutate(Record{Kind: KindLocate, ID: id, Version: version, Dev: dev, Block: block})
}

// Delete journals the discard of a page's metadata (resource release). The
// ciphertext becomes permanently undecryptable — cryptographic erasure.
func (j *Journal) Delete(id cloak.PageID) {
	j.mutate(Record{Kind: KindDelete, ID: id})
}

// DropDomain journals the teardown of an entire domain (exit, quarantine).
// Teardown also clears the domain's wedge marker: a recycled domain ID
// starts with a clean budget.
func (j *Journal) DropDomain(d cloak.DomainID) {
	delete(j.domainWedged, d)
	j.mutate(Record{Kind: KindDomainGone, ID: cloak.PageID{Domain: d}})
}

// mutate applies r to the table through the same step replay uses and
// appends it only if it changed something. A Put or Locate passes the
// per-domain quota first.
func (j *Journal) mutate(r Record) {
	if (r.Kind == KindPut || r.Kind == KindLocate) && !j.admit(r.ID) {
		return
	}
	if j.table.apply(r) {
		j.append(r)
	}
}

// Checkpoint forces a checkpoint (used at clean shutdown to quiesce).
func (j *Journal) Checkpoint() { j.checkpoint() }

// append seals one record into the log, writing the whole tail block each
// time. Full-block rewrites make the log self-healing: a failed or torn
// write leaves a bad block image, but the next append rewrites the same
// block with every accumulated record, so only a crash in the window
// between tears exposes the damage to replay.
func (j *Journal) append(r Record) {
	if j.wedged {
		return
	}
	j.appendMarks = append(j.appendMarks, j.world.Now())
	slot := j.seq
	if slot >= j.logBlocks*RecordsPerBlock {
		// Log full: fold everything into a checkpoint, which resets the log.
		j.checkpoint()
		if j.wedged {
			return
		}
		slot = j.seq
	}
	r.Epoch = j.epoch
	r.Seq = j.seq
	blk := j.logStart + slot/RecordsPerBlock
	if blk != j.tailBlock {
		for i := range j.tail {
			j.tail[i] = 0
		}
		j.tailBlock = blk
	}
	off := (slot % RecordsPerBlock) * RecordSize
	encode(j.tail[off:off+RecordSize], r, j.seal)
	start := j.world.Now()
	err := j.disk.Write(blk, j.tail[:])
	j.world.CPU().ChargeCount(0, sim.CtrJournalAppend)
	j.world.CPU().EmitSpan(obs.KindPersist, "append", uint64(r.Kind), j.world.Now()-start)
	if err != nil {
		// The record stays in the tail image; the next append (or
		// checkpoint) rewrites the block. Until then the on-disk tail is
		// torn or stale — exactly the state replay must tolerate.
		j.writeErrs++
		j.world.CPU().ChargeCount(0, sim.CtrJournalWriteErr)
	}
	j.seq++
	j.sinceCkpt++
	if j.sinceCkpt >= j.opts.CheckpointEvery {
		j.checkpoint()
	}
}

// checkpoint writes the full table into the inactive slot and commits it
// with a new-epoch superblock. Only the superblock write makes the new
// epoch real; a crash at any earlier point leaves the previous epoch's
// checkpoint + log authoritative. The table is already in PageID order, so
// the encoded checkpoint is a pure function of its contents, and the block
// image is the journal's own: a checkpoint allocates nothing.
func (j *Journal) checkpoint() {
	if j.wedged {
		return
	}
	j.ckptMarks = append(j.ckptMarks, j.world.Now())
	// Location-only entries (a Locate that never saw a Put) carry no sealed
	// metadata and are not serialized.
	n := uint64(0)
	for i := range j.table {
		if j.table[i].Entry.HasMeta {
			n++
		}
	}
	if n > j.ckptBlocks*RecordsPerBlock {
		j.wedged = true
		j.world.CPU().ChargeCount(0, sim.CtrJournalWedged)
		return
	}
	newEpoch := j.epoch + 1

	start := j.world.Now()
	slotBase := j.base + superSlots
	if newEpoch%2 == 1 {
		slotBase += j.ckptBlocks
	}
	img := &j.img
	clear(img[:])
	written := uint64(0)
	for i := range j.table {
		te := &j.table[i]
		if !te.Entry.HasMeta {
			continue
		}
		s := written % RecordsPerBlock
		encode(img[s*RecordSize:(s+1)*RecordSize], Record{
			Kind:    KindSnapshot,
			Epoch:   newEpoch,
			Seq:     written,
			ID:      te.ID,
			Version: te.Entry.Meta.Version,
			IV:      te.Entry.Meta.IV,
			Hash:    te.Entry.Meta.Hash,
			Dev:     snapshotDev(te.Entry),
			Block:   te.Entry.Block,
		}, j.seal)
		written++
		if s < RecordsPerBlock-1 && written < n {
			continue // the block has room and records remain
		}
		if err := j.disk.Write(slotBase+(written-1)/RecordsPerBlock, img[:]); err != nil {
			// A bad snapshot block costs exactly its records at replay
			// (entries are validated independently); keep going.
			j.writeErrs++
			j.world.CPU().ChargeCount(0, sim.CtrJournalWriteErr)
		}
		clear(img[:])
	}
	// Commit: the superblock names the new epoch and its checkpoint length.
	clear(img[:])
	encode(img[:RecordSize], Record{
		Kind:    KindSuper,
		Epoch:   newEpoch,
		Seq:     n,
		Version: FormatVersion,
		Block:   superMagic,
	}, j.seal)
	superBlk := j.base + uint64(newEpoch%2)
	if err := j.disk.Write(superBlk, img[:]); err != nil {
		// Commit failed: the medium still names the old epoch. Everything
		// appended under newEpoch will read as stale — a bounded data loss
		// window, surfaced as typed rejections at replay, never a panic.
		j.writeErrs++
		j.world.CPU().ChargeCount(0, sim.CtrJournalWriteErr)
	}
	j.epoch = newEpoch
	j.seq = 0
	j.sinceCkpt = 0
	j.tailBlock = 0
	j.world.CPU().ChargeCount(0, sim.CtrJournalCheckpoint)
	j.world.CPU().EmitSpan(obs.KindPersist, "checkpoint", n, j.world.Now()-start)
}

// snapshotDev encodes an entry's location validity into the dev byte. A
// snapshot record has one Version field, so it can only carry a location
// that matches the current metadata version; a stale location (the page was
// re-encrypted after its last persist) is useless for recovery and is
// dropped here rather than misrepresented.
func snapshotDev(e Entry) uint8 {
	if !e.HasLoc || !e.HasMeta || e.LocVersion != e.Meta.Version {
		return DevNone
	}
	return e.Dev
}
