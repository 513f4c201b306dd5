package cloak

import (
	"bytes"
	"testing"
	"testing/quick"

	"overshadow/internal/sim"
)

func testEngine() (*Engine, *sim.World) {
	w := sim.NewWorld(sim.DefaultCostModel(), 42)
	return NewEngine(w, NewMasterKeyer([]byte("test master secret"))), w
}

func somePage(fill byte) []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = fill ^ byte(i)
	}
	return p
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e, _ := testEngine()
	id := PageID{Domain: 1, Resource: 2, Index: 3}
	orig := somePage(0x5A)
	page := append([]byte(nil), orig...)

	meta := e.EncryptPage(id, 0, page)
	if bytes.Equal(page, orig) {
		t.Fatal("ciphertext equals plaintext")
	}
	if meta.Version != 1 {
		t.Fatalf("version = %d, want 1", meta.Version)
	}
	if err := e.DecryptPage(id, meta, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, orig) {
		t.Fatal("round trip corrupted plaintext")
	}
}

// TestPageCryptoAllocs pins the host allocations of a page transition: the
// one AES-CTR stream crypto/cipher allocates, and nothing of the engine's
// own (header, digest and IV live in the engine).
func TestPageCryptoAllocs(t *testing.T) {
	e, _ := testEngine()
	id := PageID{Domain: 1, Resource: 2, Index: 3}
	page := somePage(0x5A)
	var meta Meta
	if n := testing.AllocsPerRun(100, func() {
		meta = e.EncryptPage(id, meta.Version, page)
	}); n != 1 {
		t.Errorf("EncryptPage allocates %v times per page, want 1", n)
	}
	// AllocsPerRun makes one warm-up call before its runs: each call
	// decrypts a page of its own.
	const runs = 100
	pages := make([][]byte, runs+1)
	metas := make([]Meta, runs+1)
	for i := range pages {
		pages[i] = somePage(byte(i))
		metas[i] = e.EncryptPage(id, uint64(i), pages[i])
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := e.DecryptPage(id, metas[i], pages[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 1 {
		t.Errorf("DecryptPage allocates %v times per page, want 1", n)
	}
}

func TestFreshIVPerEncryption(t *testing.T) {
	e, _ := testEngine()
	id := PageID{Domain: 1, Resource: 1, Index: 1}
	orig := somePage(0x11)
	p1 := append([]byte(nil), orig...)
	p2 := append([]byte(nil), orig...)
	m1 := e.EncryptPage(id, 0, p1)
	m2 := e.EncryptPage(id, m1.Version, p2)
	if m1.IV == m2.IV {
		t.Fatal("IV reused across encryptions")
	}
	if bytes.Equal(p1, p2) {
		t.Fatal("identical ciphertexts for same plaintext — kernel can correlate")
	}
	if m2.Version != 2 {
		t.Fatalf("version = %d, want 2", m2.Version)
	}
}

func TestTamperDetected(t *testing.T) {
	e, w := testEngine()
	id := PageID{Domain: 1, Resource: 1, Index: 0}
	page := somePage(0x33)
	meta := e.EncryptPage(id, 0, page)
	page[100] ^= 0x01 // malicious OS flips one bit
	err := e.DecryptPage(id, meta, page)
	if err == nil {
		t.Fatal("tampered page decrypted successfully")
	}
	if _, ok := err.(*ErrIntegrity); !ok {
		t.Fatalf("error type %T, want *ErrIntegrity", err)
	}
	if w.Stats.Get(sim.CtrHashVerifyFail) != 1 {
		t.Fatal("verify-fail counter not bumped")
	}
}

func TestSubstitutionAcrossPagesDetected(t *testing.T) {
	// OS swaps the ciphertexts of two pages in the same domain: each fails
	// verification because the hash binds page identity.
	e, _ := testEngine()
	idA := PageID{Domain: 1, Resource: 1, Index: 0}
	idB := PageID{Domain: 1, Resource: 1, Index: 1}
	pa, pb := somePage(0xAA), somePage(0xBB)
	ma := e.EncryptPage(idA, 0, pa)
	mb := e.EncryptPage(idB, 0, pb)
	// Deliver B's ciphertext where A was expected (with A's metadata).
	if err := e.DecryptPage(idA, ma, pb); err == nil {
		t.Fatal("cross-page substitution not detected")
	}
	// Even with B's own metadata presented for A's slot, identity differs.
	if err := e.DecryptPage(idA, mb, append([]byte(nil), pb...)); err == nil {
		t.Fatal("metadata-following substitution not detected")
	}
}

func TestReplayDetected(t *testing.T) {
	// OS keeps a stale ciphertext+ships it back after the page was
	// re-encrypted: the VMM's record has a newer version, so the stale pair
	// must not verify against the *current* metadata record.
	e, _ := testEngine()
	id := PageID{Domain: 1, Resource: 9, Index: 4}
	v1 := somePage(0x01)
	stale := append([]byte(nil), v1...)
	metaOld := e.EncryptPage(id, 0, stale) // version 1 ciphertext in `stale`

	fresh := somePage(0x02)
	metaNew := e.EncryptPage(id, metaOld.Version, fresh) // version 2

	// Replay: present version-1 ciphertext against the current record.
	if err := e.DecryptPage(id, metaNew, append([]byte(nil), stale...)); err == nil {
		t.Fatal("replayed stale page verified against current metadata")
	}
}

func TestCrossDomainIsolation(t *testing.T) {
	// Same plaintext in two domains yields unrelated ciphertexts, and one
	// domain's page never verifies under another domain's identity.
	e, _ := testEngine()
	orig := somePage(0x77)
	p1 := append([]byte(nil), orig...)
	p2 := append([]byte(nil), orig...)
	m1 := e.EncryptPage(PageID{Domain: 1, Resource: 1, Index: 0}, 0, p1)
	e.EncryptPage(PageID{Domain: 2, Resource: 1, Index: 0}, 0, p2)
	if bytes.Equal(p1, p2) {
		t.Fatal("two domains produced identical ciphertext")
	}
	if err := e.DecryptPage(PageID{Domain: 2, Resource: 1, Index: 0}, m1, p1); err == nil {
		t.Fatal("domain 2 accepted domain 1's page")
	}
}

func TestDomainKeysDistinctAndStable(t *testing.T) {
	k := NewMasterKeyer([]byte("secret"))
	k1a, k1b := k.DomainKey(1), k.DomainKey(1)
	if k1a != k1b {
		t.Fatal("domain key not deterministic")
	}
	if k.DomainKey(1) == k.DomainKey(2) {
		t.Fatal("distinct domains share a key")
	}
	k2 := NewMasterKeyer([]byte("other secret"))
	if k.DomainKey(1) == k2.DomainKey(1) {
		t.Fatal("distinct masters share domain keys")
	}
}

func TestEncryptChargesCycles(t *testing.T) {
	e, w := testEngine()
	before := w.Now()
	e.EncryptPage(PageID{Domain: 1}, 0, somePage(0))
	want := w.Cost.PageCryptCost(4096) + w.Cost.PageHashCost(4096)
	if got := w.Clock.Since(before); got != want {
		t.Fatalf("encrypt charged %d cycles, want %d", got, want)
	}
}

func TestRoundTripProperty(t *testing.T) {
	e, _ := testEngine()
	f := func(fill byte, dom uint8, res uint16, idx uint8) bool {
		id := PageID{Domain: DomainID(dom) + 1, Resource: ResourceID(res), Index: uint64(idx)}
		orig := somePage(fill)
		page := append([]byte(nil), orig...)
		meta := e.EncryptPage(id, 0, page)
		if err := e.DecryptPage(id, meta, page); err != nil {
			return false
		}
		return bytes.Equal(page, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaStorePutGet(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	s := NewMetaStore(w, 4)
	id := PageID{Domain: 1, Resource: 1, Index: 7}
	if _, ok := s.Get(id); ok {
		t.Fatal("Get on empty store succeeded")
	}
	m := Meta{Version: 3}
	s.Put(id, m)
	got, ok := s.Get(id)
	if !ok || got.Version != 3 {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if w.Stats.Get(sim.CtrMetaCacheHit) != 1 {
		t.Fatal("cache hit not counted")
	}
}

func TestMetaStoreSpillAndPromote(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	s := NewMetaStore(w, 2)
	ids := []PageID{{Index: 0}, {Index: 1}, {Index: 2}, {Index: 3}}
	for i, id := range ids {
		s.Put(id, Meta{Version: uint64(i) + 1})
	}
	// All four must still be retrievable; early ones via the backing store.
	for i, id := range ids {
		m, ok := s.Get(id)
		if !ok || m.Version != uint64(i)+1 {
			t.Fatalf("record %d lost after spill: %v %v", i, m, ok)
		}
	}
	if w.Stats.Get(sim.CtrMetaCacheMiss) == 0 {
		t.Fatal("no cache misses despite spill")
	}
}

func TestMetaStoreVersionAndDelete(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	s := NewMetaStore(w, 2)
	id := PageID{Domain: 2, Index: 5}
	if s.Version(id) != 0 {
		t.Fatal("version of unknown page not 0")
	}
	s.Put(id, Meta{Version: 9})
	if s.Version(id) != 9 {
		t.Fatal("wrong version")
	}
	s.Delete(id)
	if _, ok := s.Get(id); ok {
		t.Fatal("record survived delete")
	}
}

func TestMetaStoreLenAndSpace(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	s := NewMetaStore(w, 2)
	for i := 0; i < 10; i++ {
		s.Put(PageID{Index: uint64(i)}, Meta{Version: 1})
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.SpaceOverheadBytes() != 10*BytesPerRecord {
		t.Fatalf("space = %d", s.SpaceOverheadBytes())
	}
}

func TestPageIDString(t *testing.T) {
	id := PageID{Domain: 3, Resource: 4, Index: 5}
	if id.String() != "d3/r4/p5" {
		t.Fatalf("String = %q", id.String())
	}
}
