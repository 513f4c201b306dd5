package persist

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"

	"overshadow/internal/sim"
)

// TestSealerMatchesHMAC: one reused sealer per key, with Seal and Sealed
// calls interleaved over random records, stamps exactly the truncated MAC a
// fresh hmac.New(sha256.New, key) computes; and a record sealed under one
// key never verifies under the other.
func TestSealerMatchesHMAC(t *testing.T) {
	keys := [2][32]byte{SealKey(1), SealKey(2)}
	sealers := [2]*Sealer{NewSealer(keys[0]), NewSealer(keys[1])}
	rng := sim.NewRNG(22)
	rec := make([]byte, RecordSize)
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(2)
		rng.Bytes(rec)
		sealers[k].Seal(rec)

		m := hmac.New(sha256.New, keys[k][:])
		m.Write(rec[:offMAC])
		if want := m.Sum(nil)[:MACSize]; !bytes.Equal(rec[offMAC:offMAC+MACSize], want) {
			t.Fatalf("trial %d: sealed MAC %x, want %x", trial, rec[offMAC:offMAC+MACSize], want)
		}
		if !sealers[k].Sealed(rec) {
			t.Fatalf("trial %d: record does not verify under its own key", trial)
		}
		if sealers[1-k].Sealed(rec) {
			t.Fatalf("trial %d: record verifies under the other key", trial)
		}
		rec[rng.Intn(offMAC)] ^= byte(1 + rng.Intn(255))
		if sealers[k].Sealed(rec) {
			t.Fatalf("trial %d: a flipped byte still verifies", trial)
		}
	}
}

// TestSealerAllocsNothing: sealing and verifying a record reuse the
// sealer's keyed state and buffer.
func TestSealerAllocsNothing(t *testing.T) {
	s := NewSealer(SealKey(3))
	rec := make([]byte, RecordSize)
	if n := testing.AllocsPerRun(100, func() { s.Seal(rec) }); n != 0 {
		t.Fatalf("Seal: %v allocs per record, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Sealed(rec) }); n != 0 {
		t.Fatalf("Sealed: %v allocs per record, want 0", n)
	}
}

// BenchmarkSealRecord measures one record seal: the per-record MAC cost of
// every journal append and checkpoint encode (a verify costs the same).
func BenchmarkSealRecord(b *testing.B) {
	s := NewSealer(SealKey(4))
	rec := make([]byte, RecordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seal(rec)
	}
}
