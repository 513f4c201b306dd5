package migrate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/vmm"
)

// Wire format. A checkpoint blob is a record section followed by a blob
// section:
//
//	record 0                 header (counts, domain, identity, epoch)
//	records 1..N             one PageMeta per sealed page, in PageID order
//	records N+1..N+M         one CTC per thread, in thread-ID order
//	record N+M+1             trailer (repeats the counts — anti-truncation)
//	blobs                    D x PageSize ciphertext pages, D <= N
//
// Every record is RecordSize bytes, sealed by persist.Seal (the journal's
// one record seal) under the migration key, and carries the checkpoint
// epoch plus its global sequence number — so a record from another
// checkpoint (stale epoch) or a reordered record (sequence gap) is refused
// exactly like the journal refuses spliced or relocated log records. Ciphertext blobs carry no
// separate MAC: their integrity anchor is the sealed per-page hash, which
// the destination VMM verifies before any plaintext exists.

// RecordSize is the fixed size of every checkpoint record: the journal's.
const RecordSize = persist.RecordSize

// formatVersion identifies the checkpoint layout; a decoder refuses blobs
// written by a different layout instead of misparsing them. Version 2
// carries a data-less page's core.RecoveryState in its record.
const formatVersion = 2

// Record kinds.
const (
	kindHeader byte = iota + 1
	kindPageMeta
	kindCTC
	kindTrailer
)

// Shared offsets (every record): kind at 0, epoch at 4, seq at 8, and the
// persist.Seal MAC at 104. Kind-specific payloads live in [16, 104).
const (
	offKind  = 0
	offEpoch = 4
	offSeq   = 8
)

// SealKeyFor derives the migration sealing key from the journal sealing
// key. The derivation is deliberately distinct from the journal's: a
// journal record MAC can never verify as a checkpoint record or vice
// versa, so sealed state cannot be spliced across the two protocols even
// though both keys descend from the same simulation seed.
func SealKeyFor(journalKey [32]byte) [32]byte {
	h := sha256.New()
	h.Write(journalKey[:])
	h.Write([]byte("overshadow-migrate-seal/v1"))
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// sealRecord stamps the common fields and MAC onto one encoded record.
func sealRecord(dst []byte, kind byte, epoch uint32, seq uint64, key *[32]byte) {
	dst[offKind] = kind
	binary.LittleEndian.PutUint32(dst[offEpoch:], epoch)
	binary.LittleEndian.PutUint64(dst[offSeq:], seq)
	persist.Seal(dst, key)
}

// Encode serializes ckpt into a sealed blob under key. The output is a pure
// function of the checkpoint contents: pages and threads are serialized in
// the order they appear (Capture produces them sorted), and ciphertext
// blobs are appended in page order.
func Encode(ckpt *Checkpoint, key [32]byte) []byte {
	n, m := len(ckpt.Pages), len(ckpt.Threads)
	nblobs := 0
	for _, p := range ckpt.Pages {
		if p.Data != nil {
			nblobs++
		}
	}
	out := make([]byte, (2+n+m)*RecordSize+nblobs*mach.PageSize)
	blobBase := (2 + n + m) * RecordSize

	// Header.
	hdr := out[:RecordSize]
	hdr[1] = formatVersion
	binary.LittleEndian.PutUint32(hdr[16:], uint32(ckpt.Domain))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(m))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(ckpt.SrcVCPUs))
	copy(hdr[32:64], ckpt.Identity[:])
	binary.LittleEndian.PutUint32(hdr[64:], uint32(nblobs))
	sealRecord(hdr, kindHeader, ckpt.Epoch, 0, &key)

	// Page metadata records, blobs assigned in order.
	blobIdx := 0
	for i, p := range ckpt.Pages {
		rec := out[(1+i)*RecordSize : (2+i)*RecordSize]
		if p.Data != nil {
			rec[1] = 1 // hasData
			binary.LittleEndian.PutUint64(rec[96:], uint64(blobIdx))
			copy(out[blobBase+blobIdx*mach.PageSize:], p.Data)
			blobIdx++
		} else {
			rec[2] = byte(p.State)
		}
		binary.LittleEndian.PutUint32(rec[16:], uint32(p.ID.Domain))
		binary.LittleEndian.PutUint64(rec[20:], uint64(p.ID.Resource))
		binary.LittleEndian.PutUint64(rec[28:], p.ID.Index)
		binary.LittleEndian.PutUint64(rec[36:], p.Meta.Version)
		copy(rec[44:60], p.Meta.IV[:])
		copy(rec[60:92], p.Meta.Hash[:])
		sealRecord(rec, kindPageMeta, ckpt.Epoch, uint64(1+i), &key)
	}

	// Thread (CTC) records.
	for i, t := range ckpt.Threads {
		rec := out[(1+n+i)*RecordSize : (2+n+i)*RecordSize]
		if t.InTrap {
			rec[1] = 1
		}
		rec[2] = byte(t.Trap)
		binary.LittleEndian.PutUint32(rec[16:], uint32(t.ID))
		binary.LittleEndian.PutUint32(rec[20:], uint32(t.SavedCPU))
		binary.LittleEndian.PutUint64(rec[24:], t.Regs.PC)
		binary.LittleEndian.PutUint64(rec[32:], t.Regs.SP)
		for g, v := range t.Regs.GPR {
			binary.LittleEndian.PutUint64(rec[40+8*g:], v)
		}
		sealRecord(rec, kindCTC, ckpt.Epoch, uint64(1+n+i), &key)
	}

	// Trailer repeats the counts so a truncated record section can never
	// pass as a shorter-but-valid checkpoint.
	trl := out[(1+n+m)*RecordSize : (2+n+m)*RecordSize]
	binary.LittleEndian.PutUint32(trl[16:], uint32(n))
	binary.LittleEndian.PutUint32(trl[20:], uint32(m))
	binary.LittleEndian.PutUint32(trl[24:], uint32(nblobs))
	sealRecord(trl, kindTrailer, ckpt.Epoch, uint64(1+n+m), &key)

	return out
}

// Decode parses and verifies a checkpoint blob under key.
//
// Framing damage — truncation, a length that disagrees with the sealed
// header, an unverifiable header or trailer, a wrong key — returns a nil
// checkpoint and an error wrapping ErrCheckpointMalformed: no page from
// such a blob is usable. Damage to individual page or thread records is
// survivable: each refused record becomes a typed persist.Rejection in
// phase "migrate" (bad MAC for corruption, stale epoch for cross-checkpoint
// splices, sequence gap for reordering, bad kind for a record that verifies
// but cannot belong here) and the surviving records still decode.
// Ciphertext blobs are copied out; their verification happens later against
// the sealed per-page hash. Decode never panics on any input and never
// produces plaintext.
func Decode(blob []byte, key [32]byte) (*Checkpoint, persist.Rejections, error) {
	if len(blob) < 2*RecordSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than header+trailer", ErrCheckpointMalformed, len(blob))
	}
	hdr := blob[:RecordSize]
	if !persist.Sealed(hdr, &key) {
		return nil, nil, fmt.Errorf("%w: header seal did not verify (torn, corrupted, or sealed under a different key)", ErrCheckpointMalformed)
	}
	if hdr[offKind] != kindHeader || hdr[1] != formatVersion {
		return nil, nil, fmt.Errorf("%w: bad header kind/version (%d/%d)", ErrCheckpointMalformed, hdr[offKind], hdr[1])
	}
	epoch := binary.LittleEndian.Uint32(hdr[offEpoch:])
	if binary.LittleEndian.Uint64(hdr[offSeq:]) != 0 {
		return nil, nil, fmt.Errorf("%w: header relocated (nonzero sequence)", ErrCheckpointMalformed)
	}
	domain := cloak.DomainID(binary.LittleEndian.Uint32(hdr[16:]))
	n := int(binary.LittleEndian.Uint32(hdr[20:]))
	m := int(binary.LittleEndian.Uint32(hdr[24:]))
	srcVCPUs := int(binary.LittleEndian.Uint32(hdr[28:]))
	nblobs := int(binary.LittleEndian.Uint32(hdr[64:]))

	want := uint64(2+n+m)*RecordSize + uint64(nblobs)*mach.PageSize
	if nblobs > n || uint64(len(blob)) != want {
		return nil, nil, fmt.Errorf("%w: length %d does not match sealed geometry (%d records, %d blobs)",
			ErrCheckpointMalformed, len(blob), 2+n+m, nblobs)
	}
	blobBase := (2 + n + m) * RecordSize

	ckpt := &Checkpoint{Domain: domain, Epoch: epoch, SrcVCPUs: srcVCPUs}
	copy(ckpt.Identity[:], hdr[32:64])
	var rejs persist.Rejections

	reject := func(frame int, reason persist.RejectReason) {
		rejs = append(rejs, persist.Rejection{Phase: "migrate", Slot: uint64(frame), Reason: reason})
	}
	// verifyCommon runs the checks shared by every non-header record; a
	// false return means the record was rejected (and accounted).
	verifyCommon := func(rec []byte, frame int, kind byte) bool {
		switch {
		case !persist.Sealed(rec, &key):
			reject(frame, persist.RejectBadMAC)
		case rec[offKind] != kind:
			reject(frame, persist.RejectBadKind)
		case binary.LittleEndian.Uint32(rec[offEpoch:]) != epoch:
			reject(frame, persist.RejectStaleEpoch)
		case binary.LittleEndian.Uint64(rec[offSeq:]) != uint64(frame):
			reject(frame, persist.RejectSeqGap)
		default:
			return true
		}
		return false
	}

	for i := 0; i < n; i++ {
		frame := 1 + i
		rec := blob[frame*RecordSize : (frame+1)*RecordSize]
		if !verifyCommon(rec, frame, kindPageMeta) {
			continue
		}
		p := PageRecord{
			ID: cloak.PageID{
				Domain:   cloak.DomainID(binary.LittleEndian.Uint32(rec[16:])),
				Resource: cloak.ResourceID(binary.LittleEndian.Uint64(rec[20:])),
				Index:    binary.LittleEndian.Uint64(rec[28:]),
			},
		}
		p.Meta.Version = binary.LittleEndian.Uint64(rec[36:])
		copy(p.Meta.IV[:], rec[44:60])
		copy(p.Meta.Hash[:], rec[60:92])
		if p.ID.Domain != domain {
			// A page of a different domain inside this checkpoint is a
			// splice even if its seal verifies.
			reject(frame, persist.RejectBadKind)
			continue
		}
		if rec[1] != 0 {
			bi := binary.LittleEndian.Uint64(rec[96:])
			if bi >= uint64(nblobs) {
				reject(frame, persist.RejectBadKind)
				continue
			}
			p.Data = make([]byte, mach.PageSize)
			copy(p.Data, blob[blobBase+int(bi)*mach.PageSize:])
		} else {
			// A data-less page must say why, in one of the three
			// unavailable states a capture can produce.
			p.State = core.RecoveryState(rec[2])
			if p.State != core.NoLocation && p.State != core.StaleLocation && p.State != core.ReadError {
				reject(frame, persist.RejectBadKind)
				continue
			}
		}
		ckpt.Pages = append(ckpt.Pages, p)
	}

	for i := 0; i < m; i++ {
		frame := 1 + n + i
		rec := blob[frame*RecordSize : (frame+1)*RecordSize]
		if !verifyCommon(rec, frame, kindCTC) {
			continue
		}
		t := vmm.ThreadState{
			ID:       vmm.ThreadID(binary.LittleEndian.Uint32(rec[16:])),
			InTrap:   rec[1] != 0,
			Trap:     vmm.TrapKind(rec[2]),
			SavedCPU: int(binary.LittleEndian.Uint32(rec[20:])),
		}
		t.Regs.PC = binary.LittleEndian.Uint64(rec[24:])
		t.Regs.SP = binary.LittleEndian.Uint64(rec[32:])
		for g := range t.Regs.GPR {
			t.Regs.GPR[g] = binary.LittleEndian.Uint64(rec[40+8*g:])
		}
		ckpt.Threads = append(ckpt.Threads, t)
	}

	// Trailer: framing-critical, so any damage fails the whole blob. Its
	// counts must repeat the header's — the anti-truncation cross-check.
	frame := 1 + n + m
	trl := blob[frame*RecordSize : (frame+1)*RecordSize]
	if !persist.Sealed(trl, &key) || trl[offKind] != kindTrailer ||
		binary.LittleEndian.Uint32(trl[offEpoch:]) != epoch ||
		binary.LittleEndian.Uint64(trl[offSeq:]) != uint64(frame) ||
		int(binary.LittleEndian.Uint32(trl[16:])) != n ||
		int(binary.LittleEndian.Uint32(trl[20:])) != m ||
		int(binary.LittleEndian.Uint32(trl[24:])) != nblobs {
		return nil, nil, fmt.Errorf("%w: trailer missing, damaged, or disagreeing with header", ErrCheckpointMalformed)
	}

	return ckpt, rejs, nil
}
