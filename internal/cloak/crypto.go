// Package cloak implements the cryptographic half of memory cloaking: the
// per-protection-domain keys, page encryption, integrity hashing, the
// (IV, H) metadata records, and the VMM's metadata cache.
//
// The scheme follows the paper. A cloaked page is encrypted under its
// domain's key with a fresh IV on every encryption (so the kernel never sees
// two identical ciphertexts for the same plaintext), and a SHA-256 hash binds
// the ciphertext to the page's identity — (domain, resource, page index,
// version) — so that a malicious OS cannot substitute a different cloaked
// page, relocate one, or replay a stale copy.
package cloak

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"overshadow/internal/sim"
)

// KeySize is the AES key length in bytes (AES-128).
const KeySize = 16

// IVSize is the per-page initialization vector length.
const IVSize = 16

// HashSize is the SHA-256 digest length.
const HashSize = sha256.Size

// DomainID identifies a protection domain. Domain 0 is reserved to mean
// "uncloaked".
type DomainID uint32

// ResourceID identifies a cloaked resource within a domain: an anonymous
// memory object, a cloaked file, etc. Page identity is (domain, resource,
// page index).
type ResourceID uint64

// PageID is the full identity of one cloaked page.
type PageID struct {
	Domain   DomainID
	Resource ResourceID
	Index    uint64 // page index within the resource
}

// String implements fmt.Stringer.
func (p PageID) String() string {
	return fmt.Sprintf("d%d/r%d/p%d", p.Domain, p.Resource, p.Index)
}

// Less orders PageIDs by (domain, resource, index): the one page order of
// journal serialization, migration capture and recovery reports.
func (p PageID) Less(q PageID) bool {
	if p.Domain != q.Domain {
		return p.Domain < q.Domain
	}
	if p.Resource != q.Resource {
		return p.Resource < q.Resource
	}
	return p.Index < q.Index
}

// Meta is the (IV, H, version) record the VMM keeps for every encrypted
// cloaked page. Freshness is enforced by the version: each encryption bumps
// it, and the hash covers it, so replaying an older ciphertext+metadata pair
// fails verification against the VMM's record.
type Meta struct {
	IV      [IVSize]byte
	Hash    [HashSize]byte
	Version uint64
}

// Keyer derives per-domain keys. The production implementation derives from
// a VMM master secret; tests may supply fixed keys.
type Keyer interface {
	DomainKey(d DomainID) [KeySize]byte
}

// MasterKeyer derives domain keys from a master secret by hashing, standing
// in for the paper's VMM-held key hierarchy.
type MasterKeyer struct {
	master [32]byte
}

// NewMasterKeyer builds a keyer from a master secret (any length; hashed).
func NewMasterKeyer(secret []byte) *MasterKeyer {
	return &MasterKeyer{master: sha256.Sum256(secret)}
}

// DomainKey derives the AES key for domain d.
func (m *MasterKeyer) DomainKey(d DomainID) [KeySize]byte {
	var buf [36]byte
	copy(buf[:32], m.master[:])
	binary.LittleEndian.PutUint32(buf[32:], uint32(d))
	sum := sha256.Sum256(buf[:])
	var k [KeySize]byte
	copy(k[:], sum[:KeySize])
	return k
}

// Engine performs the page-granularity crypto operations and charges their
// simulated cost. It is owned by the VMM; nothing in the guest can reach it.
type Engine struct {
	world *sim.World
	keys  Keyer
	ivSeq uint64 // distinct-IV source, mixed with the world RNG
	// blocks caches the expanded AES key schedule per domain: domain keys
	// are derived deterministically and never rotate within a run, so the
	// expansion (the dominant host cost of aes.NewCipher) pays once per
	// domain instead of once per page operation.
	blocks map[DomainID]cipher.Block
	// hasher is the reused page-integrity hash state; hashPage resets it
	// per use. The engine is VMM-owned and single-threaded by the baton
	// scheduler, so one instance suffices.
	hasher hash.Hash
}

// NewEngine builds a crypto engine.
func NewEngine(world *sim.World, keys Keyer) *Engine {
	return &Engine{
		world:  world,
		keys:   keys,
		blocks: make(map[DomainID]cipher.Block),
		hasher: sha256.New(),
	}
}

// freshIV returns an IV that never repeats within a run.
func (e *Engine) freshIV() [IVSize]byte {
	var iv [IVSize]byte
	e.ivSeq++
	binary.LittleEndian.PutUint64(iv[:8], e.ivSeq)
	binary.LittleEndian.PutUint64(iv[8:], e.world.RNG.Uint64())
	return iv
}

func (e *Engine) stream(d DomainID, iv [IVSize]byte) cipher.Stream {
	block, ok := e.blocks[d]
	if !ok {
		key := e.keys.DomainKey(d)
		var err error
		block, err = aes.NewCipher(key[:])
		if err != nil {
			// Key size is fixed; failure is impossible and therefore fatal.
			panic("cloak: aes.NewCipher: " + err.Error())
		}
		e.blocks[d] = block
	}
	return cipher.NewCTR(block, iv[:])
}

// hashPage computes the integrity hash binding ciphertext to identity and
// version, reusing the engine's hash state (Reset + identical writes yield
// byte-identical digests).
func (e *Engine) hashPage(id PageID, version uint64, iv [IVSize]byte, ciphertext []byte) [HashSize]byte {
	h := e.hasher
	h.Reset()
	var hdr [8 + 4 + 8 + 8 + IVSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(id.Resource))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(id.Domain))
	binary.LittleEndian.PutUint64(hdr[12:], id.Index)
	binary.LittleEndian.PutUint64(hdr[20:], version)
	copy(hdr[28:], iv[:])
	h.Write(hdr[:])
	h.Write(ciphertext)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// EncryptPage encrypts page contents in place with a fresh IV, computes the
// integrity hash for the next version, and returns the new metadata record.
// prevVersion is the version currently recorded for the page (0 if never
// encrypted).
func (e *Engine) EncryptPage(id PageID, prevVersion uint64, page []byte) Meta {
	iv := e.freshIV()
	e.stream(id.Domain, iv).XORKeyStream(page, page)
	version := prevVersion + 1
	hash := e.hashPage(id, version, iv, page)
	e.world.CPU().ChargeCount(e.world.Cost.PageCryptCost(len(page)), sim.CtrPageEncrypt)
	e.world.CPU().ChargeCount(e.world.Cost.PageHashCost(len(page)), sim.CtrHashCompute)
	return Meta{IV: iv, Hash: hash, Version: version}
}

// ErrIntegrity is returned when a cloaked page fails verification — the
// signature of a malicious or buggy OS having modified, substituted, or
// replayed the page.
type ErrIntegrity struct {
	Page PageID
}

// Error implements the error interface.
func (e *ErrIntegrity) Error() string {
	return fmt.Sprintf("cloak: integrity verification failed for page %s", e.Page)
}

// DecryptPage verifies the page's ciphertext against meta and, on success,
// decrypts in place. On failure the page is left untouched and an
// *ErrIntegrity is returned.
func (e *Engine) DecryptPage(id PageID, meta Meta, page []byte) error {
	e.world.CPU().ChargeAdd(e.world.Cost.PageHashCost(len(page)), sim.CtrHashCompute, 0)
	want := e.hashPage(id, meta.Version, meta.IV, page)
	if want != meta.Hash {
		e.world.CPU().ChargeAdd(0, sim.CtrHashVerifyFail, 1)
		return &ErrIntegrity{Page: id}
	}
	e.world.CPU().ChargeAdd(0, sim.CtrHashVerifyOK, 1)
	e.stream(id.Domain, meta.IV).XORKeyStream(page, page)
	e.world.CPU().ChargeCount(e.world.Cost.PageCryptCost(len(page)), sim.CtrPageDecrypt)
	return nil
}
