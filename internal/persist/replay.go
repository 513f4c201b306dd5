package persist

import (
	"fmt"
	"sort"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// RejectReason classifies why replay refused a record. Every reason is an
// expected, typed outcome — replay never panics on disk contents, whatever
// an adversary or a torn write left there.
type RejectReason uint8

// Rejection reasons.
const (
	// RejectBadMAC: the record's seal did not verify — torn write, sector
	// corruption, or a forgery attempt without the sealing key.
	RejectBadMAC RejectReason = iota + 1
	// RejectStaleEpoch: a validly sealed record from a superseded epoch —
	// e.g. pre-checkpoint log blocks, or a replayed-from-backup sector.
	RejectStaleEpoch
	// RejectSeqGap: sequence discontinuity — a record relocated to the
	// wrong slot, or the log resumed after damage.
	RejectSeqGap
	// RejectRollback: a Put carrying a version not newer than the one
	// already replayed — the freshness (anti-rollback) rule.
	RejectRollback
	// RejectBadKind: a sealed record whose kind is invalid in its position.
	RejectBadKind
	// RejectReadError: the device refused to return the sector (after
	// retries).
	RejectReadError
	// RejectNoAnchor: neither superblock verified; there is no committed
	// epoch to recover from.
	RejectNoAnchor
)

var reasonNames = [...]string{
	"", "bad-mac", "stale-epoch", "seq-gap", "rollback", "bad-kind",
	"read-error", "no-anchor",
}

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	if int(r) < len(reasonNames) && r != 0 {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Rejection is one refused record: a typed error value carrying where and
// why.
type Rejection struct {
	// Phase is "super", "checkpoint" or "log" for journal replay, and
	// "migrate" for a migration checkpoint record refused at decode.
	Phase string
	// Block is the absolute device block holding the refused record (0
	// for a checkpoint record, which lives in no block).
	Block uint64
	// Slot is the record slot within the phase (sequence position; a
	// checkpoint record's frame).
	Slot uint64
	// Reason classifies the refusal.
	Reason RejectReason
}

// Error implements error.
func (r Rejection) Error() string {
	return fmt.Sprintf("persist: rejected %s record (block %d, slot %d): %s",
		r.Phase, r.Block, r.Slot, r.Reason)
}

// Rejections lists refused records in the order they were refused.
type Rejections []Rejection

// RejectedBy counts rejections with the given reason.
func (rs Rejections) RejectedBy(reason RejectReason) int {
	n := 0
	for _, rej := range rs {
		if rej.Reason == reason {
			n++
		}
	}
	return n
}

// Result is the outcome of replaying a journal range: the reconstructed
// metadata table plus a full account of everything refused.
type Result struct {
	// Anchored reports whether a committed superblock verified; when false
	// the table is empty and Rejections explains why.
	Anchored bool
	// Epoch is the recovered committed epoch (0 when unanchored).
	Epoch uint32
	// CheckpointRecords / LogRecords count records accepted from each area.
	CheckpointRecords int
	LogRecords        int
	// Rejections lists every refused record in replay order.
	Rejections
	// Table is the reconstructed page state.
	Table map[cloak.PageID]Entry
}

// Accepted reports the total number of accepted records.
func (r *Result) Accepted() int { return r.CheckpointRecords + r.LogRecords }

// PageIDs returns the table's keys in deterministic (domain, resource,
// index) order; all recovery iteration goes through this.
func (r *Result) PageIDs() []cloak.PageID {
	ids := make([]cloak.PageID, 0, len(r.Table))
	// Sorted immediately below; no downstream bytes or iteration depend on
	// map order.
	//overlint:allow determinism -- keys are collected then sorted before use
	for id := range r.Table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	return ids
}

// Replay walks the reserved range [base, base+blocks) of disk and
// reconstructs the metadata table committed there. It is the read half of
// the journal: superblock → checkpoint → log, in that order, refusing (with
// typed Rejections, never a panic) every record that fails its MAC, carries
// a stale epoch, breaks sequence contiguity, or rolls a version backwards.
func Replay(world *sim.World, disk *mach.Disk, base, blocks uint64, key [32]byte) *Result {
	res := &Result{Table: make(map[cloak.PageID]Entry)}
	start := world.Now()
	defer func() {
		world.CPU().EmitSpan(obs.KindPersist, "replay", uint64(res.Accepted()), world.Now()-start)
	}()
	if blocks < MinBlocks || base+blocks > disk.NumBlocks() {
		res.Rejections = append(res.Rejections,
			Rejection{Phase: "super", Block: base, Reason: RejectNoAnchor})
		return res
	}
	ckpt := (blocks - superSlots) / 4
	if ckpt == 0 {
		ckpt = 1
	}
	logStart := base + superSlots + 2*ckpt
	logBlocks := blocks - superSlots - 2*ckpt

	// Anchor: the higher committed epoch of the two superblock slots wins.
	var buf [mach.BlockSize]byte
	var super Record
	for slot := uint64(0); slot < superSlots; slot++ {
		if err := disk.ReadRetry(base+slot, buf[:]); err != nil {
			res.reject(world, Rejection{Phase: "super", Block: base + slot, Reason: RejectReadError})
			continue
		}
		r, ok := decode(buf[:RecordSize], &key)
		if !ok {
			if !isZero(buf[:RecordSize]) {
				res.reject(world, Rejection{Phase: "super", Block: base + slot, Reason: RejectBadMAC})
			}
			continue
		}
		if r.Kind != KindSuper || r.Block != superMagic || r.Version != FormatVersion ||
			r.Epoch == 0 || uint64(r.Epoch%2) != slot {
			res.reject(world, Rejection{Phase: "super", Block: base + slot, Reason: RejectBadKind})
			continue
		}
		if r.Epoch > super.Epoch {
			super = r
		}
	}
	if super.Epoch == 0 {
		res.reject(world, Rejection{Phase: "super", Block: base, Reason: RejectNoAnchor})
		return res
	}
	res.Anchored = true
	res.Epoch = super.Epoch

	// Checkpoint: entries verify independently — a torn snapshot block
	// costs exactly its own records, never the rest of the checkpoint.
	count := super.Seq
	slotBase := base + superSlots
	if super.Epoch%2 == 1 {
		slotBase += ckpt
	}
	for i := uint64(0); i < count; i++ {
		blk := slotBase + i/RecordsPerBlock
		off := (i % RecordsPerBlock) * RecordSize
		if off == 0 {
			if err := disk.ReadRetry(blk, buf[:]); err != nil {
				res.reject(world, Rejection{Phase: "checkpoint", Block: blk, Slot: i, Reason: RejectReadError})
				// Poison the buffer so stale data from the previous block
				// cannot be mistaken for this block's records.
				for j := range buf {
					buf[j] = 0xFF
				}
			}
		}
		r, ok := decode(buf[off:off+RecordSize], &key)
		if !ok {
			res.reject(world, Rejection{Phase: "checkpoint", Block: blk, Slot: i, Reason: RejectBadMAC})
			continue
		}
		if r.Kind != KindSnapshot || r.Epoch != super.Epoch {
			res.reject(world, Rejection{Phase: "checkpoint", Block: blk, Slot: i, Reason: RejectStaleEpoch})
			continue
		}
		if r.Seq != i {
			res.reject(world, Rejection{Phase: "checkpoint", Block: blk, Slot: i, Reason: RejectSeqGap})
			continue
		}
		e := Entry{Meta: cloak.Meta{IV: r.IV, Hash: r.Hash, Version: r.Version}, HasMeta: true}
		if r.Dev != DevNone {
			e.Dev = r.Dev
			e.Block = r.Block
			e.LocVersion = r.Version
			e.HasLoc = true
		}
		res.Table[r.ID] = e
		res.CheckpointRecords++
		world.CPU().ChargeCount(0, sim.CtrReplayAccepted)
	}

	// Log: strictly sequential; the first hole, tear, stale record, or
	// rollback ends replay (conservative valid-prefix rule — everything
	// after an anomaly is untrusted).
	for i := uint64(0); i < logBlocks*RecordsPerBlock; i++ {
		blk := logStart + i/RecordsPerBlock
		off := (i % RecordsPerBlock) * RecordSize
		if off == 0 {
			if err := disk.ReadRetry(blk, buf[:]); err != nil {
				res.reject(world, Rejection{Phase: "log", Block: blk, Slot: i, Reason: RejectReadError})
				return res
			}
		}
		slot := buf[off : off+RecordSize]
		if isZero(slot) {
			return res // clean end of log
		}
		r, ok := decode(slot, &key)
		if !ok {
			res.reject(world, Rejection{Phase: "log", Block: blk, Slot: i, Reason: RejectBadMAC})
			return res
		}
		if r.Epoch != super.Epoch {
			res.reject(world, Rejection{Phase: "log", Block: blk, Slot: i, Reason: RejectStaleEpoch})
			return res
		}
		if r.Seq != i {
			res.reject(world, Rejection{Phase: "log", Block: blk, Slot: i, Reason: RejectSeqGap})
			return res
		}
		switch r.Kind {
		case KindPut:
			if e, ok := res.Table[r.ID]; ok && e.HasMeta && r.Version <= e.Meta.Version {
				res.reject(world, Rejection{Phase: "log", Block: blk, Slot: i, Reason: RejectRollback})
				return res
			}
			e := res.Table[r.ID]
			e.Meta = cloak.Meta{IV: r.IV, Hash: r.Hash, Version: r.Version}
			e.HasMeta = true
			res.Table[r.ID] = e
		case KindLocate:
			e := res.Table[r.ID]
			e.Dev = r.Dev
			e.Block = r.Block
			e.LocVersion = r.Version
			e.HasLoc = true
			res.Table[r.ID] = e
		case KindDelete:
			delete(res.Table, r.ID)
		case KindDomainGone:
			// Deletion is commutative; iteration order cannot change the
			// resulting table.
			//overlint:allow determinism -- domain-wide deletion is commutative
			for id := range res.Table {
				if id.Domain == r.ID.Domain {
					delete(res.Table, id)
				}
			}
		default:
			res.reject(world, Rejection{Phase: "log", Block: blk, Slot: i, Reason: RejectBadKind})
			return res
		}
		res.LogRecords++
		world.CPU().ChargeCount(0, sim.CtrReplayAccepted)
	}
	return res
}

// reject records one refusal and counts it.
func (r *Result) reject(world *sim.World, rej Rejection) {
	r.Rejections = append(r.Rejections, rej)
	world.CPU().ChargeCount(0, sim.CtrReplayRejected)
}
