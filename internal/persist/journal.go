package persist

import (
	"fmt"
	"sort"

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
	// Blocks sizes the reserved journal range when the embedding host
	// builds the device (default 256 blocks = 1 MiB).
	Blocks uint64
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

// ErrJournalFull is returned (and counted) when the persisted state no
// longer fits the reserved range; the journal wedges — an availability
// loss, never an integrity one.
var ErrJournalFull = fmt.Errorf("persist: journal wedged: reserved range full")

// Journal is the writer half: the VMM appends a sealed record for every
// metadata mutation and periodically checkpoints the full table. All I/O
// goes through the (fault-injectable) disk, so torn and failed journal
// writes are part of the deterministic fault schedule.
type Journal struct {
	world *sim.World
	disk  *mach.Disk
	key   [32]byte
	opts  Options

	base       uint64 // first reserved block
	blocks     uint64 // reserved range length
	ckptBlocks uint64 // blocks per checkpoint slot
	logStart   uint64 // absolute block index of the log area
	logBlocks  uint64

	// table is the writer's in-memory truth: what a fully successful replay
	// of the on-disk journal should reconstruct.
	table map[cloak.PageID]Entry

	epoch     uint32               // current committed epoch
	seq       uint64               // next log record sequence number within epoch
	sinceCkpt int                  // appends since the last checkpoint
	tail      [mach.BlockSize]byte // image of the current tail log block
	tailBlock uint64               // absolute index of the tail block, 0 = none

	wedged    bool
	writeErrs int

	// Per-domain quota state (allocated only when the quota is set).
	domainCount  map[cloak.DomainID]int
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
		key:        key,
		opts:       opts,
		base:       base,
		blocks:     blocks,
		ckptBlocks: ckpt,
		logStart:   base + superSlots + 2*ckpt,
		logBlocks:  blocks - superSlots - 2*ckpt,
		table:      make(map[cloak.PageID]Entry),
	}
	if opts.PerDomainEntries > 0 {
		j.domainCount = make(map[cloak.DomainID]int)
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

// Resume reopens a journal over a replayed table: it adopts the recovered
// state and immediately re-seals it under a strictly fresher epoch, so the
// next replay anchors on the recovered state rather than the crashed tail —
// and a rollback to the pre-crash superblock is detectably stale.
func Resume(world *sim.World, disk *mach.Disk, base, blocks uint64, key [32]byte, opts Options, rep *Result) (*Journal, error) {
	j, err := newJournal(world, disk, base, blocks, key, opts)
	if err != nil {
		return nil, err
	}
	j.epoch = rep.Epoch // next checkpoint commits rep.Epoch+1
	j.table = make(map[cloak.PageID]Entry, len(rep.Table))
	for _, id := range rep.PageIDs() {
		j.table[id] = rep.Table[id]
		if j.domainCount != nil {
			j.domainCount[id.Domain]++
		}
	}
	j.checkpoint()
	return j, nil
}

// Len reports the number of live page entries.
func (j *Journal) Len() int { return len(j.table) }

// Wedged reports whether the journal stopped persisting (range overflow).
func (j *Journal) Wedged() bool { return j.wedged }

// DomainWedged reports whether domain d individually exceeded its quota and
// lost journaling (its sealed state is gone; siblings are unaffected).
func (j *Journal) DomainWedged(d cloak.DomainID) bool { return j.domainWedged[d] }

// admit applies the per-domain quota to a mutation of id's entry, reporting
// whether it may proceed. Growth beyond the quota wedges the offending
// domain only: its state is dropped and further mutations are ignored.
func (j *Journal) admit(id cloak.PageID) bool {
	if j.opts.PerDomainEntries <= 0 {
		return true
	}
	d := id.Domain
	if j.domainWedged[d] {
		return false
	}
	if _, ok := j.table[id]; ok {
		return true // updating a live entry adds no growth
	}
	if j.domainCount[d] >= j.opts.PerDomainEntries {
		j.wedgeDomain(d)
		return false
	}
	j.domainCount[d]++
	return true
}

// wedgeDomain contains a quota overflow to its domain: drop the domain's
// sealed state (its pages become typed-unavailable at replay, never silently
// stale) and stop accepting its mutations. The shared journal — and every
// sibling domain — keeps running.
func (j *Journal) wedgeDomain(d cloak.DomainID) {
	j.domainWedged[d] = true
	j.domainCount[d] = 0
	j.world.CPU().ChargeCount(0, sim.CtrJournalDomainWedged)
	found := false
	// Deletion is commutative; only the single KindDomainGone record below
	// is serialized, so iteration order cannot reach any byte on disk.
	//overlint:allow determinism -- domain-wide deletion is commutative; quota containment sweep
	for id := range j.table {
		if id.Domain == d {
			delete(j.table, id)
			found = true
		}
	}
	if found {
		j.append(Record{Kind: KindDomainGone, ID: cloak.PageID{Domain: d}})
	}
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

// TableEntry pairs a page identity with its live journal entry, for callers
// that need the writer's full in-memory table (live-migration capture walks
// it to enumerate a domain's sealed pages).
type TableEntry struct {
	ID    cloak.PageID
	Entry Entry
}

// Entries returns a copy of the live table in deterministic PageID order.
func (j *Journal) Entries() []TableEntry {
	out := make([]TableEntry, 0, len(j.table))
	//overlint:allow determinism -- entries are collected then sorted before use
	for id, e := range j.table {
		out = append(out, TableEntry{ID: id, Entry: e})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID.Less(out[b].ID) })
	return out
}

// Put journals a page's new metadata record.
func (j *Journal) Put(id cloak.PageID, m cloak.Meta) {
	if !j.admit(id) {
		return
	}
	e := j.table[id]
	e.Meta = m
	e.HasMeta = true
	j.table[id] = e
	j.append(Record{Kind: KindPut, ID: id, Version: m.Version, IV: m.IV, Hash: m.Hash})
}

// Locate journals where the ciphertext of a page version landed on stable
// storage. The location is a hint from the untrusted kernel: replay
// re-verifies the payload against the sealed hash, so a wrong location can
// only cost availability.
func (j *Journal) Locate(id cloak.PageID, dev uint8, block, version uint64) {
	if !j.admit(id) {
		return
	}
	e := j.table[id]
	e.Dev = dev
	e.Block = block
	e.LocVersion = version
	e.HasLoc = true
	j.table[id] = e
	j.append(Record{Kind: KindLocate, ID: id, Version: version, Dev: dev, Block: block})
}

// Delete journals the discard of a page's metadata (resource release). The
// ciphertext becomes permanently undecryptable — cryptographic erasure.
func (j *Journal) Delete(id cloak.PageID) {
	if _, ok := j.table[id]; !ok {
		return
	}
	delete(j.table, id)
	if j.domainCount != nil {
		j.domainCount[id.Domain]--
	}
	j.append(Record{Kind: KindDelete, ID: id})
}

// DropDomain journals the teardown of an entire domain (exit, quarantine).
func (j *Journal) DropDomain(d cloak.DomainID) {
	found := false
	// Deletion is commutative, so map iteration order cannot influence the
	// resulting table or any bytes written (the single record below encodes
	// only the domain ID).
	//overlint:allow determinism -- domain-wide deletion is commutative; teardown sweep, no serialized bytes depend on this order
	for id := range j.table {
		if id.Domain == d {
			delete(j.table, id)
			found = true
		}
	}
	if j.domainCount != nil {
		// Teardown releases the domain's quota slots (and any wedge marker):
		// a recycled domain ID starts with a clean budget.
		delete(j.domainCount, d)
		delete(j.domainWedged, d)
	}
	if !found {
		return
	}
	j.append(Record{Kind: KindDomainGone, ID: cloak.PageID{Domain: d}})
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
	encode(j.tail[off:off+RecordSize], r, &j.key)
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
// checkpoint + log authoritative.
func (j *Journal) checkpoint() {
	if j.wedged {
		return
	}
	j.ckptMarks = append(j.ckptMarks, j.world.Now())
	ids := make([]cloak.PageID, 0, len(j.table))
	// Keys are sorted before any byte is serialized; the encoded checkpoint
	// is a pure function of the table contents. Location-only entries (a
	// Locate that never saw a Put) carry no sealed metadata and are dropped.
	//overlint:allow determinism -- checkpoint sweep; keys are collected then sorted before serialization
	for id, e := range j.table {
		if e.HasMeta {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	n := uint64(len(ids))
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
	var img [mach.BlockSize]byte
	written := uint64(0)
	for b := uint64(0); written < n; b++ {
		for i := range img {
			img[i] = 0
		}
		for s := uint64(0); s < RecordsPerBlock && written < n; s++ {
			e := j.table[ids[written]]
			encode(img[s*RecordSize:(s+1)*RecordSize], Record{
				Kind:    KindSnapshot,
				Epoch:   newEpoch,
				Seq:     written,
				ID:      ids[written],
				Version: e.Meta.Version,
				IV:      e.Meta.IV,
				Hash:    e.Meta.Hash,
				Dev:     snapshotDev(e),
				Block:   e.Block,
			}, &j.key)
			written++
		}
		if err := j.disk.Write(slotBase+b, img[:]); err != nil {
			// A bad snapshot block costs exactly its records at replay
			// (entries are validated independently); keep going.
			j.writeErrs++
			j.world.CPU().ChargeCount(0, sim.CtrJournalWriteErr)
		}
	}
	// Commit: the superblock names the new epoch and its checkpoint length.
	for i := range img {
		img[i] = 0
	}
	encode(img[:RecordSize], Record{
		Kind:    KindSuper,
		Epoch:   newEpoch,
		Seq:     n,
		Version: FormatVersion,
		Block:   superMagic,
	}, &j.key)
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
