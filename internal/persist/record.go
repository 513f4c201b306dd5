// Package persist is the VMM's crash-consistency layer: a sealed,
// append-only metadata journal written through the simulated block device,
// plus the replay path that rebuilds cloaking metadata after a whole-machine
// crash.
//
// The paper's protection contract spans OS restarts: cloaked pages on
// untrusted storage stay secret and tamper-evident because the VMM — never
// the guest — owns the (IV, hash, version) records. This package makes that
// half of the contract real for the simulation. Every metadata mutation the
// VMM performs is appended to a reserved block range of the (fault-
// injectable, untrusted) disk as a fixed-width record sealed with a MAC
// under a VMM-private key; periodic checkpoints bound replay time. After a
// crash, Replay walks superblock → checkpoint → log, rejecting every record
// that fails its MAC (torn or corrupted), carries a stale epoch, breaks
// sequence contiguity, or rolls a page version backwards — each rejection is
// a typed value, never a panic — and returns the surviving metadata table.
//
// Everything here is deterministic: records are fixed-width little-endian
// (no map iteration feeds an encoder — overlint's determinism analyzer
// enforces this for the whole package), the sealing key is a pure function
// of the simulation seed, and all I/O costs are charged to the simulated
// clock through mach.Disk. A given (seed, workload, crash cycle) names one
// exact disk image and one exact recovery outcome.
package persist

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
)

// RecordSize is the fixed on-disk size of every journal record. Fixed-width
// records make torn writes detectable by construction: a record is either
// fully persisted (MAC verifies) or it is not a record.
const RecordSize = 128

// RecordsPerBlock is how many records one disk block holds.
const RecordsPerBlock = mach.BlockSize / RecordSize

// MACSize is the truncated HMAC-SHA256 length stored per record.
const MACSize = 24

// FormatVersion identifies the on-disk layout; bumped on incompatible
// changes so replay can reject a journal written by a different layout
// instead of misparsing it.
const FormatVersion = 1

// superMagic marks a superblock record (stored in the Block field, where a
// log record would keep a device block number).
const superMagic = 0x4F56534A524E4C31 // "OVSJRNL1"

// Kind discriminates journal record types.
type Kind uint8

// Record kinds.
const (
	// KindInvalid: the zero kind; an all-zero record slot means "end of log".
	KindInvalid Kind = iota
	// KindPut: a page's (IV, hash, version) record was written or replaced.
	KindPut
	// KindLocate: the ciphertext of a page version was persisted at a stable
	// device location (the untrusted kernel reported where it put it; the
	// location is only a hint — recovery re-verifies the payload hash, so a
	// lying kernel can cost availability, never integrity).
	KindLocate
	// KindDelete: a page's metadata was discarded (resource release). The
	// cloaked data becomes permanently unrecoverable, by design.
	KindDelete
	// KindDomainGone: every record of a domain was discarded (domain
	// teardown or quarantine).
	KindDomainGone
	// KindSnapshot: one entry of a checkpoint: the page's full current state
	// (metadata plus last known ciphertext location).
	KindSnapshot
	// KindSuper: a superblock: commits an epoch and its checkpoint length.
	KindSuper
)

var kindNames = [...]string{
	"invalid", "put", "locate", "delete", "domain-gone", "snapshot", "super",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Device codes for KindLocate/KindSnapshot locations.
const (
	// DevNone: no known ciphertext location.
	DevNone uint8 = 0
	// DevSwap: a block on the swap device.
	DevSwap uint8 = 1
)

// Record is the in-memory form of one journal record. All fields are
// fixed-width on disk; see encode for the exact layout.
type Record struct {
	Kind    Kind
	Epoch   uint32
	Seq     uint64
	ID      cloak.PageID
	Version uint64
	IV      [cloak.IVSize]byte
	Hash    [cloak.HashSize]byte
	Dev     uint8
	Block   uint64
}

// On-disk layout (little-endian, offsets in bytes):
//
//	  0  kind (1)         1..2 pad        3  dev (1)
//	  4  epoch (4)        8  seq (8)
//	 16  domain (4)      20  resource (8) 28  index (8)
//	 36  version (8)
//	 44  IV (16)         60  hash (32)
//	 92  pad (4)         96  block (8)
//	104  MAC (24) — HMAC-SHA256(key, bytes 0..104) truncated
const (
	offKind    = 0
	offDev     = 3
	offEpoch   = 4
	offSeq     = 8
	offDomain  = 16
	offRes     = 20
	offIndex   = 28
	offVersion = 36
	offIV      = 44
	offHash    = 60
	offBlock   = 96
	offMAC     = 104
)

// Sealer stamps and verifies record MACs: HMAC-SHA256 under one key over
// bytes [0, 104), truncated to MACSize and stored at byte 104. It is the one
// record seal of the journal and of the migration checkpoint; the two
// protocols seal under different keys, so a record of one never verifies as
// the other.
//
// A Sealer keeps one keyed HMAC state and resets it for each record, so
// sealing or verifying a record allocates nothing. That state is mutable:
// each journal, replay and checkpoint codec call owns its own Sealer, and
// none is shared between goroutines.
type Sealer struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

// NewSealer returns a sealer keyed with key.
func NewSealer(key [32]byte) *Sealer {
	return &Sealer{mac: hmac.New(sha256.New, key[:])}
}

// Seal stamps rec's MAC.
func (s *Sealer) Seal(rec []byte) {
	copy(rec[offMAC:offMAC+MACSize], s.compute(rec))
}

// Sealed reports whether rec's stored MAC verifies: false for a torn,
// corrupted or forged record, or one sealed under another key.
func (s *Sealer) Sealed(rec []byte) bool {
	return hmac.Equal(s.compute(rec), rec[offMAC:offMAC+MACSize])
}

// compute returns the truncated MAC over rec's first offMAC bytes, in the
// sealer's own buffer.
func (s *Sealer) compute(rec []byte) []byte {
	s.mac.Reset()
	s.mac.Write(rec[:offMAC])
	return s.mac.Sum(s.sum[:0])[:MACSize]
}

// encode serializes r into dst (len >= RecordSize) and seals it. The layout
// is pure fixed-width stores: nothing here may depend on map iteration or
// any other source of run-to-run variation.
func encode(dst []byte, r Record, s *Sealer) {
	for i := 0; i < RecordSize; i++ {
		dst[i] = 0
	}
	dst[offKind] = byte(r.Kind)
	dst[offDev] = r.Dev
	binary.LittleEndian.PutUint32(dst[offEpoch:], r.Epoch)
	binary.LittleEndian.PutUint64(dst[offSeq:], r.Seq)
	binary.LittleEndian.PutUint32(dst[offDomain:], uint32(r.ID.Domain))
	binary.LittleEndian.PutUint64(dst[offRes:], uint64(r.ID.Resource))
	binary.LittleEndian.PutUint64(dst[offIndex:], r.ID.Index)
	binary.LittleEndian.PutUint64(dst[offVersion:], r.Version)
	copy(dst[offIV:], r.IV[:])
	copy(dst[offHash:], r.Hash[:])
	binary.LittleEndian.PutUint64(dst[offBlock:], r.Block)
	s.Seal(dst)
}

// isZero reports whether the slot has never been written (end of log).
func isZero(src []byte) bool {
	for _, b := range src[:RecordSize] {
		if b != 0 {
			return false
		}
	}
	return true
}

// decode parses and verifies one record slot. ok is false when the MAC does
// not verify — a torn, corrupted, or forged record; the caller classifies.
func decode(src []byte, s *Sealer) (Record, bool) {
	if !s.Sealed(src) {
		return Record{}, false
	}
	var r Record
	r.Kind = Kind(src[offKind])
	r.Dev = src[offDev]
	r.Epoch = binary.LittleEndian.Uint32(src[offEpoch:])
	r.Seq = binary.LittleEndian.Uint64(src[offSeq:])
	r.ID = cloak.PageID{
		Domain:   cloak.DomainID(binary.LittleEndian.Uint32(src[offDomain:])),
		Resource: cloak.ResourceID(binary.LittleEndian.Uint64(src[offRes:])),
		Index:    binary.LittleEndian.Uint64(src[offIndex:]),
	}
	r.Version = binary.LittleEndian.Uint64(src[offVersion:])
	copy(r.IV[:], src[offIV:])
	copy(r.Hash[:], src[offHash:])
	r.Block = binary.LittleEndian.Uint64(src[offBlock:])
	return r, true
}

// SealKey derives the VMM's journal sealing key from the simulation seed.
// In a real deployment this key would live in the VMM's sealed storage
// (e.g. TPM-bound); here it is a pure function of the seed so that a
// (seed, workload) pair names one exact journal image. Rebooting with a
// different seed therefore models losing the sealing key: every record
// fails its MAC and recovery yields nothing — which is the correct failure
// direction (availability loss, never a forged acceptance).
func SealKey(seed uint64) [32]byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h := sha256.New()
	h.Write([]byte("overshadow-journal-seal/v1:"))
	h.Write(buf[:])
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// Entry is the recovery-relevant state of one cloaked page: its current
// metadata record plus the last reported stable ciphertext location. The
// journal writer keeps a Table of them as it appends; Replay rebuilds the
// same Table from disk.
type Entry struct {
	Meta    cloak.Meta
	HasMeta bool
	// Dev/Block locate the ciphertext persisted for LocVersion. Only
	// meaningful when HasLoc; recovery trusts it for availability only.
	Dev        uint8
	Block      uint64
	LocVersion uint64
	HasLoc     bool
}
