package migrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/vmm"
)

// testKey is an arbitrary fixed migration key for codec tests.
var testKey = SealKeyFor(persist.SealKey(7))

// xorshift is the same tiny PRNG family the simulator uses: the fuzz
// corpus is seeded, so a failure reproduces exactly.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545F4914F6CDD1D
}

// synthCheckpoint builds a checkpoint with a mix of data pages, data-less
// pages in the three unavailable states, and threads, all filled from the
// seeded stream.
func synthCheckpoint(seed uint64, npages, nthreads int) *Checkpoint {
	rng := xorshift(seed | 1)
	ckpt := &Checkpoint{
		Domain:   3,
		Epoch:    9,
		SrcVCPUs: 2,
	}
	for i := range ckpt.Identity {
		ckpt.Identity[i] = byte(rng.next())
	}
	for i := 0; i < npages; i++ {
		p := PageRecord{ID: cloak.PageID{Domain: 3, Resource: 11, Index: uint64(i)}}
		p.Meta.Version = rng.next()
		for j := range p.Meta.IV {
			p.Meta.IV[j] = byte(rng.next())
		}
		for j := range p.Meta.Hash {
			p.Meta.Hash[j] = byte(rng.next())
		}
		switch i % 4 {
		case 3:
			p.State = core.NoLocation + core.RecoveryState(rng.next()%3)
		default:
			p.Data = make([]byte, 4096)
			for j := range p.Data {
				p.Data[j] = byte(rng.next())
			}
		}
		ckpt.Pages = append(ckpt.Pages, p)
	}
	for i := 0; i < nthreads; i++ {
		t := vmm.ThreadState{
			ID:       vmm.ThreadID(i + 1),
			InTrap:   i%2 == 0,
			Trap:     vmm.TrapKind(i % 3),
			SavedCPU: i % 2,
		}
		t.Regs.PC = rng.next()
		t.Regs.SP = rng.next()
		for g := range t.Regs.GPR {
			t.Regs.GPR[g] = rng.next()
		}
		ckpt.Threads = append(ckpt.Threads, t)
	}
	return ckpt
}

// TestRecordRoundTrip: Decode(Encode(x)) reproduces every field, with no
// rejections, and Encode(Decode(Encode(x))) is byte-identical — the codec
// is a bijection on well-formed checkpoints.
func TestRecordRoundTrip(t *testing.T) {
	ckpt := synthCheckpoint(42, 13, 3)
	blob := Encode(ckpt, testKey)
	got, rejs, err := Decode(blob, testKey)
	if err != nil || len(rejs) != 0 {
		t.Fatalf("decode: err=%v rejections=%v", err, rejs)
	}
	if !reflect.DeepEqual(got, ckpt) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ckpt)
	}
	if again := Encode(got, testKey); !bytes.Equal(again, blob) {
		t.Fatalf("Encode(Decode(x)) differs from x: %d vs %d bytes", len(again), len(blob))
	}
}

// TestRecordEmptyCheckpoint: a domain with no pages and no threads still
// round-trips (header + trailer only).
func TestRecordEmptyCheckpoint(t *testing.T) {
	ckpt := &Checkpoint{Domain: 5, Epoch: 2, SrcVCPUs: 1}
	blob := Encode(ckpt, testKey)
	if len(blob) != 2*RecordSize {
		t.Fatalf("empty checkpoint blob = %d bytes, want %d", len(blob), 2*RecordSize)
	}
	got, rejs, err := Decode(blob, testKey)
	if err != nil || len(rejs) != 0 {
		t.Fatalf("decode: err=%v rejections=%v", err, rejs)
	}
	if !reflect.DeepEqual(got, ckpt) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestRecordWrongKey: a blob sealed under one trust root reads as garbage
// under another — typed malformed, not a partial decode.
func TestRecordWrongKey(t *testing.T) {
	blob := Encode(synthCheckpoint(1, 5, 1), testKey)
	other := SealKeyFor(persist.SealKey(8))
	if _, _, err := Decode(blob, other); !errors.Is(err, ErrCheckpointMalformed) {
		t.Fatalf("wrong key: err=%v, want ErrCheckpointMalformed", err)
	}
}

// TestRecordTruncation: cutting the blob at every record boundary (and at
// ragged offsets near each) is always refused typed and never panics.
func TestRecordTruncation(t *testing.T) {
	blob := Encode(synthCheckpoint(2, 9, 2), testKey)
	cuts := []int{0, 1, RecordSize - 1, RecordSize}
	for off := RecordSize; off < len(blob); off += RecordSize {
		cuts = append(cuts, off, off+17)
	}
	for _, cut := range cuts {
		if cut >= len(blob) {
			continue
		}
		ckpt, _, err := Decode(blob[:cut], testKey)
		if !errors.Is(err, ErrCheckpointMalformed) {
			t.Fatalf("truncated at %d: err=%v, want ErrCheckpointMalformed", cut, err)
		}
		if ckpt != nil {
			t.Fatalf("truncated at %d: got a checkpoint back", cut)
		}
	}
	// Growing the blob also breaks the sealed geometry.
	if _, _, err := Decode(append(append([]byte{}, blob...), 0), testKey); !errors.Is(err, ErrCheckpointMalformed) {
		t.Fatalf("extended blob: err=%v, want ErrCheckpointMalformed", err)
	}
}

// TestRecordReorder: swapping two sealed page records is refused as a
// sequence gap on both frames; every other record still decodes.
func TestRecordReorder(t *testing.T) {
	ckpt := synthCheckpoint(3, 8, 0)
	blob := Encode(ckpt, testKey)
	a, b := blob[2*RecordSize:3*RecordSize], blob[5*RecordSize:6*RecordSize]
	tmp := make([]byte, RecordSize)
	copy(tmp, a)
	copy(a, b)
	copy(b, tmp)

	got, rejs, err := Decode(blob, testKey)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rejs) != 2 {
		t.Fatalf("rejections = %v, want 2 sequence gaps", rejs)
	}
	for _, r := range rejs {
		if r.Reason != persist.RejectSeqGap {
			t.Fatalf("rejection %v, want RejectSeqGap", r)
		}
	}
	if len(got.Pages) != len(ckpt.Pages)-2 {
		t.Fatalf("surviving pages = %d, want %d", len(got.Pages), len(ckpt.Pages)-2)
	}
}

// TestRecordSplice: a validly sealed record from a different checkpoint
// (same key, different epoch) is refused as a stale epoch, and one naming
// a different domain is refused as a splice even at the right epoch.
func TestRecordSplice(t *testing.T) {
	ckpt := synthCheckpoint(4, 6, 0)
	blob := Encode(ckpt, testKey)

	older := synthCheckpoint(4, 6, 0)
	older.Epoch = ckpt.Epoch - 1
	oldBlob := Encode(older, testKey)
	copy(blob[3*RecordSize:4*RecordSize], oldBlob[3*RecordSize:4*RecordSize])

	_, rejs, err := Decode(blob, testKey)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rejs) != 1 || rejs[0].Reason != persist.RejectStaleEpoch {
		t.Fatalf("rejections = %v, want one RejectStaleEpoch", rejs)
	}

	// Cross-domain splice: seal a foreign domain's page at the right epoch
	// and frame. The record verifies but the page must not land.
	foreign := synthCheckpoint(5, 6, 0)
	foreign.Epoch = ckpt.Epoch
	for i := range foreign.Pages {
		foreign.Pages[i].ID.Domain = 99
	}
	blob2 := Encode(ckpt, testKey)
	copy(blob2[2*RecordSize:3*RecordSize], Encode(foreign, testKey)[2*RecordSize:3*RecordSize])
	got, rejs, err := Decode(blob2, testKey)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rejs) != 1 || rejs[0].Reason != persist.RejectBadKind {
		t.Fatalf("rejections = %v, want one RejectBadKind", rejs)
	}
	for _, p := range got.Pages {
		if p.ID.Domain != ckpt.Domain {
			t.Fatalf("foreign-domain page landed: %+v", p.ID)
		}
	}
}

// TestRecordBadPageState: a data-less page record must carry one of the
// three unavailable states. One sealed with Recovered or with no state at
// all is refused as bad-kind at its own frame; every other page decodes.
func TestRecordBadPageState(t *testing.T) {
	for _, st := range []core.RecoveryState{core.Recovered, 0} {
		ckpt := synthCheckpoint(8, 8, 1)
		ckpt.Pages[3].State = st // page 3 is data-less (i%4 == 3)
		got, rejs, err := Decode(Encode(ckpt, testKey), testKey)
		if err != nil {
			t.Fatalf("state %v: decode: %v", st, err)
		}
		want := persist.Rejections{{Phase: "migrate", Slot: 4, Reason: persist.RejectBadKind}}
		if !reflect.DeepEqual(rejs, want) {
			t.Fatalf("state %v: rejections = %v, want %v", st, rejs, want)
		}
		intact := append(append([]PageRecord{}, ckpt.Pages[:3]...), ckpt.Pages[4:]...)
		if !reflect.DeepEqual(got.Pages, intact) {
			t.Fatalf("state %v: surviving pages differ from the other seven", st)
		}
	}
}

// FuzzDecode: whatever bytes arrive, Decode never panics (a panic fails the
// target) and never yields an untyped outcome — it fails typed-malformed
// (framing damage), rejects records with a reason, or decodes clean
// (blob-section damage, caught later by the sealed page hash). Decode never
// writes to the blob, and each decoded page's Data is one whole page of the
// blob's ciphertext section, capped at len == cap == PageSize: the decoder
// cannot invent data, and an append to one page cannot reach the next.
// Every data-less page carries one of the three unavailable states. The
// seed corpus is 400 seeded 1-3-byte corruptions of one checkpoint, so a
// plain `go test` runs all of them.
func FuzzDecode(f *testing.F) {
	pristine := Encode(synthCheckpoint(6, 10, 2), testKey)
	rng := xorshift(0xE16)
	for trial := 0; trial < 400; trial++ {
		blob := append([]byte(nil), pristine...)
		flips := 1 + int(rng.next()%3)
		for i := 0; i < flips; i++ {
			pos := int(rng.next() % uint64(len(blob)))
			blob[pos] ^= byte(1 + rng.next()%255)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		sent := bytes.Clone(blob)
		ckpt, rejs, err := Decode(blob, testKey)
		if !bytes.Equal(blob, sent) {
			t.Fatal("Decode wrote to the blob")
		}
		switch {
		case err != nil:
			if !errors.Is(err, ErrCheckpointMalformed) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		case ckpt == nil:
			t.Fatal("nil checkpoint without error")
		}
		for _, r := range rejs {
			if r.Reason == 0 {
				t.Fatal("rejection without a reason")
			}
		}
		// A clean decode verified the sealed geometry: the ciphertext
		// section is the blob's tail after the 2+n+m records.
		n, m := binary.LittleEndian.Uint32(blob[20:]), binary.LittleEndian.Uint32(blob[24:])
		section := blob[(2+int(n)+int(m))*RecordSize:]
		for _, p := range ckpt.Pages {
			switch {
			case p.Data != nil:
				if len(p.Data) != mach.PageSize || cap(p.Data) != mach.PageSize {
					t.Fatalf("page %v: len %d cap %d, want %d each", p.ID, len(p.Data), cap(p.Data), mach.PageSize)
				}
				if !inSection(p.Data, section) {
					t.Fatalf("page %v: Data is not a page of the blob's ciphertext section", p.ID)
				}
			case p.State != core.NoLocation && p.State != core.StaleLocation && p.State != core.ReadError:
				t.Fatalf("data-less page %v in state %v", p.ID, p.State)
			}
		}
	})
}

// inSection reports whether page is one page-aligned page of section, by
// address: the same backing bytes, not an equal copy.
func inSection(page, section []byte) bool {
	for off := 0; off+mach.PageSize <= len(section); off += mach.PageSize {
		if &page[0] == &section[off] {
			return true
		}
	}
	return false
}

// TestRecordFuzzGarbage: seeded arbitrary byte strings (including sizes
// that look record-aligned) never panic the decoder and never decode.
func TestRecordFuzzGarbage(t *testing.T) {
	rng := xorshift(0xBEEF)
	sizes := []int{0, 1, 64, RecordSize, 2 * RecordSize, 3*RecordSize + 7, 4096, 2*RecordSize + 4096}
	for trial := 0; trial < 200; trial++ {
		size := sizes[trial%len(sizes)]
		blob := make([]byte, size)
		for i := range blob {
			blob[i] = byte(rng.next())
		}
		ckpt, _, err := Decode(blob, testKey)
		if err == nil {
			t.Fatalf("trial %d: %d random bytes decoded successfully: %+v", trial, size, ckpt)
		}
		if !errors.Is(err, ErrCheckpointMalformed) {
			t.Fatalf("trial %d: untyped error %v", trial, err)
		}
	}
}

// TestRejectionError: a refused checkpoint record renders as a persist
// rejection in phase "migrate", with its frame as the slot.
func TestRejectionError(t *testing.T) {
	r := persist.Rejection{Phase: "migrate", Slot: 4, Reason: persist.RejectBadMAC}
	want := fmt.Sprintf("persist: rejected migrate record (block 0, slot 4): %s", persist.RejectBadMAC)
	if r.Error() != want {
		t.Fatalf("Error() = %q, want %q", r.Error(), want)
	}
}

// BenchmarkMigrateRoundTrip measures one synthetic 64-page checkpoint's
// trip through the codec and a fault-free channel: Transfer (which encodes
// it under the source's key), then Decode on the destination.
func BenchmarkMigrateRoundTrip(b *testing.B) {
	sys := core.NewSystem(core.Config{MemoryPages: 48, Seed: 1, Persist: &persist.Options{}})
	key := SealKeyFor(persist.SealKey(sys.Seed()))
	ckpt := synthCheckpoint(1, 64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, _, err := Transfer(sys, ckpt)
		if err != nil {
			b.Fatal(err)
		}
		if _, rejs, err := Decode(blob, key); err != nil || len(rejs) != 0 {
			b.Fatalf("decode: err=%v rejections=%v", err, rejs)
		}
	}
}
