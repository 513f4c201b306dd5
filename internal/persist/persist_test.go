package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/fault"
	"overshadow/internal/mach"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

func testWorld(seed uint64) *sim.World {
	return sim.NewWorld(sim.DefaultCostModel(), seed)
}

func pid(d, r, i uint64) cloak.PageID {
	return cloak.PageID{Domain: cloak.DomainID(d), Resource: cloak.ResourceID(r), Index: i}
}

func meta(v uint64) cloak.Meta {
	var m cloak.Meta
	m.Version = v
	for i := range m.IV {
		m.IV[i] = byte(v + uint64(i))
	}
	for i := range m.Hash {
		m.Hash[i] = byte(v*7 + uint64(i))
	}
	return m
}

const testBlocks = 64

func newTestJournal(t testing.TB, world *sim.World, opts Options) (*Journal, *mach.Disk, [32]byte) {
	t.Helper()
	disk := mach.NewDisk(world, 128+testBlocks)
	key := SealKey(7)
	j, err := NewJournal(world, disk, 128, testBlocks, key, opts)
	if err != nil {
		t.Fatalf("NewJournal: %v", err)
	}
	return j, disk, key
}

func TestRecordCodecRoundtrip(t *testing.T) {
	key := SealKey(42)
	r := Record{
		Kind: KindPut, Epoch: 9, Seq: 1234, ID: pid(3, 17, 88),
		Version: 5, Dev: DevSwap, Block: 4096,
	}
	copy(r.IV[:], bytes.Repeat([]byte{0xAB}, len(r.IV)))
	copy(r.Hash[:], bytes.Repeat([]byte{0xCD}, len(r.Hash)))
	var buf [RecordSize]byte
	seal := NewSealer(key)
	encode(buf[:], r, seal)
	got, ok := decode(buf[:], seal)
	if !ok {
		t.Fatal("decode rejected a freshly sealed record")
	}
	if got != r {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, r)
	}
	// Any flipped byte must invalidate the seal.
	for _, off := range []int{0, offEpoch, offVersion, offIV, offHash, offMAC} {
		tam := buf
		tam[off] ^= 0x01
		if _, ok := decode(tam[:], seal); ok {
			t.Fatalf("decode accepted record with byte %d flipped", off)
		}
	}
	// The wrong key must reject everything.
	if _, ok := decode(buf[:], NewSealer(SealKey(43))); ok {
		t.Fatal("decode accepted a record under the wrong sealing key")
	}
}

// The journal histories below each run on a fresh newTestJournal, and some
// tamper with its disk afterwards. The tests replay them, and FuzzReplay
// seeds its corpus with the images they leave.

func roundtripHistory(j *Journal, _ *mach.Disk) {
	j.Put(pid(1, 1, 0), meta(1))
	j.Put(pid(1, 1, 1), meta(1))
	j.Locate(pid(1, 1, 0), DevSwap, 40, 1)
	j.Put(pid(1, 1, 0), meta(2)) // supersedes; location now stale
	j.Put(pid(2, 5, 9), meta(3))
	j.Delete(pid(1, 1, 1))
}

func TestJournalReplayRoundtrip(t *testing.T) {
	world := testWorld(1)
	j, disk, key := newTestJournal(t, world, Options{})
	roundtripHistory(j, disk)

	rep := Replay(testWorld(2), disk, 128, testBlocks, key)
	if !rep.Anchored {
		t.Fatalf("replay not anchored: %v", rep.Rejections)
	}
	if len(rep.Rejections) != 0 {
		t.Fatalf("unexpected rejections: %v", rep.Rejections)
	}
	if len(rep.Table) != 2 {
		t.Fatalf("table size = %d, want 2", len(rep.Table))
	}
	e, _ := rep.Table.Get(pid(1, 1, 0))
	if !e.HasMeta || e.Meta != meta(2) {
		t.Fatalf("page (1,1,0) meta = %+v, want version 2", e)
	}
	if !e.HasLoc || e.Block != 40 || e.LocVersion != 1 {
		t.Fatalf("page (1,1,0) location = %+v, want block 40 @v1", e)
	}
	if _, ok := rep.Table.Get(pid(1, 1, 1)); ok {
		t.Fatal("deleted page survived replay")
	}
	if e, _ := rep.Table.Get(pid(2, 5, 9)); !e.HasMeta || e.Meta.Version != 3 {
		t.Fatalf("page (2,5,9) = %+v, want version 3", e)
	}
}

// rolloverHistory runs with CheckpointEvery 8.
func rolloverHistory(j *Journal, _ *mach.Disk) {
	// Enough appends to roll several checkpoints (and epochs).
	for v := uint64(1); v <= 5; v++ {
		for i := uint64(0); i < 10; i++ {
			j.Put(pid(1, 2, i), meta(v))
		}
	}
	j.DropDomain(cloak.DomainID(99)) // no-op: unknown domain appends nothing
}

func TestJournalCheckpointRollover(t *testing.T) {
	world := testWorld(3)
	j, disk, key := newTestJournal(t, world, Options{CheckpointEvery: 8})
	rolloverHistory(j, disk)
	if j.Epoch() < 3 {
		t.Fatalf("epoch = %d, want several checkpoints", j.Epoch())
	}
	rep := Replay(testWorld(4), disk, 128, testBlocks, key)
	if !rep.Anchored || len(rep.Rejections) != 0 {
		t.Fatalf("replay: anchored=%v rejections=%v", rep.Anchored, rep.Rejections)
	}
	if len(rep.Table) != 10 {
		t.Fatalf("table size = %d, want 10", len(rep.Table))
	}
	for i := uint64(0); i < 10; i++ {
		if e, _ := rep.Table.Get(pid(1, 2, i)); e.Meta.Version != 5 {
			t.Fatalf("page %d version = %d, want 5", i, e.Meta.Version)
		}
	}
	if rep.Epoch != j.Epoch() {
		t.Fatalf("replayed epoch %d != writer epoch %d", rep.Epoch, j.Epoch())
	}
}

func dropDomainHistory(j *Journal, _ *mach.Disk) {
	j.Put(pid(1, 1, 0), meta(1))
	j.Put(pid(2, 1, 0), meta(1))
	j.Put(pid(2, 1, 1), meta(1))
	j.DropDomain(cloak.DomainID(2))
}

func TestJournalDropDomain(t *testing.T) {
	world := testWorld(5)
	j, disk, key := newTestJournal(t, world, Options{})
	dropDomainHistory(j, disk)
	rep := Replay(testWorld(6), disk, 128, testBlocks, key)
	if len(rep.Table) != 1 {
		t.Fatalf("table size = %d, want 1", len(rep.Table))
	}
	if _, ok := rep.Table.Get(pid(1, 1, 0)); !ok {
		t.Fatal("surviving domain's page missing")
	}
}

// tornTailHistory simulates a crash that left the final log record
// half-written.
func tornTailHistory(j *Journal, disk *mach.Disk) {
	for i := uint64(0); i < 5; i++ {
		j.Put(pid(1, 1, i), meta(1))
	}
	// Tear the most recent record: keep a prefix, trash the rest.
	blk := j.logStart + (j.seq-1)/RecordsPerBlock
	off := ((j.seq - 1) % RecordsPerBlock) * RecordSize
	img := disk.Peek(blk)
	for i := off + 40; i < off+RecordSize; i++ {
		img[i] ^= 0x5A
	}
	disk.Poke(blk, img)
}

func TestReplayRejectsTornTail(t *testing.T) {
	world := testWorld(7)
	j, disk, key := newTestJournal(t, world, Options{})
	tornTailHistory(j, disk)

	rep := Replay(testWorld(8), disk, 128, testBlocks, key)
	if !rep.Anchored {
		t.Fatal("torn tail must not unanchor the journal")
	}
	if rep.RejectedBy(RejectBadMAC) != 1 {
		t.Fatalf("rejections = %v, want one bad-mac", rep.Rejections)
	}
	// The intact prefix (4 of 5 puts) must survive.
	if rep.LogRecords != 4 {
		t.Fatalf("log records = %d, want 4", rep.LogRecords)
	}
	if len(rep.Table) != 4 {
		t.Fatalf("table size = %d, want 4", len(rep.Table))
	}
}

func rollbackHistory(j *Journal, disk *mach.Disk) {
	j.Put(pid(1, 1, 0), meta(3))
	// Forge a validly sealed record that rolls the version back — what an
	// attacker with a stolen sealing key (or a replayed backup of a single
	// sector at the right position) would need to produce.
	old := meta(2)
	var buf [mach.BlockSize]byte
	copy(buf[:], disk.Peek(j.logStart))
	encode(buf[j.seq*RecordSize:(j.seq+1)*RecordSize], Record{
		Kind: KindPut, Epoch: j.epoch, Seq: j.seq, ID: pid(1, 1, 0),
		Version: old.Version, IV: old.IV, Hash: old.Hash,
	}, j.seal)
	disk.Poke(j.logStart, buf[:])
}

func TestReplayRejectsRollback(t *testing.T) {
	world := testWorld(9)
	j, disk, key := newTestJournal(t, world, Options{})
	rollbackHistory(j, disk)

	rep := Replay(testWorld(10), disk, 128, testBlocks, key)
	if rep.RejectedBy(RejectRollback) != 1 {
		t.Fatalf("rejections = %v, want one rollback", rep.Rejections)
	}
	if e, _ := rep.Table.Get(pid(1, 1, 0)); e.Meta.Version != 3 {
		t.Fatalf("version = %d after rollback attempt, want 3 (fresh)", e.Meta.Version)
	}
}

func TestReplayWrongKeyRecoversNothing(t *testing.T) {
	world := testWorld(11)
	j, disk, _ := newTestJournal(t, world, Options{})
	j.Put(pid(1, 1, 0), meta(1))
	rep := Replay(testWorld(12), disk, 128, testBlocks, SealKey(999))
	if rep.Anchored {
		t.Fatal("replay anchored under the wrong sealing key")
	}
	if len(rep.Table) != 0 {
		t.Fatal("entries recovered under the wrong sealing key")
	}
	if rep.RejectedBy(RejectNoAnchor) == 0 {
		t.Fatalf("rejections = %v, want a no-anchor", rep.Rejections)
	}
}

// staleEpochHistory runs with CheckpointEvery 4.
func staleEpochHistory(j *Journal, disk *mach.Disk) {
	// Three old-epoch records at the log head...
	for i := uint64(0); i < 3; i++ {
		j.Put(pid(1, 1, i), meta(1))
	}
	stale := disk.Peek(j.logStart)
	// ...the fourth append rolls a checkpoint (new epoch, log reset), and a
	// fifth lands at the new log head...
	j.Put(pid(1, 1, 3), meta(1))
	j.Put(pid(1, 1, 9), meta(1))
	// ...then an adversary re-serves the pre-checkpoint head sector.
	disk.Poke(j.logStart, stale)
}

func TestReplayRejectsStaleEpochLog(t *testing.T) {
	world := testWorld(13)
	j, disk, key := newTestJournal(t, world, Options{CheckpointEvery: 4})
	staleEpochHistory(j, disk)

	rep := Replay(testWorld(14), disk, 128, testBlocks, key)
	if !rep.Anchored {
		t.Fatal("stale log must not unanchor")
	}
	if rep.RejectedBy(RejectStaleEpoch) != 1 {
		t.Fatalf("rejections = %v, want one stale-epoch", rep.Rejections)
	}
	// The checkpointed state (pages 0..3) still recovers in full; only the
	// page behind the re-served sector is lost.
	if len(rep.Table) != 4 {
		t.Fatalf("table size = %d, want 4 checkpointed pages", len(rep.Table))
	}
}

func TestResumeCommitsFresherEpoch(t *testing.T) {
	world := testWorld(15)
	j, disk, key := newTestJournal(t, world, Options{})
	j.Put(pid(1, 1, 0), meta(4))
	was := j.Epoch()

	rep := Replay(testWorld(16), disk, 128, testBlocks, key)
	w2 := testWorld(17)
	j2, err := Resume(w2, disk, 128, testBlocks, key, Options{}, rep.Epoch, rep.Table)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if j2.Epoch() <= was {
		t.Fatalf("resumed epoch %d not fresher than %d", j2.Epoch(), was)
	}
	rep2 := Replay(testWorld(18), disk, 128, testBlocks, key)
	if rep2.Epoch != j2.Epoch() || len(rep2.Table) != 1 {
		t.Fatalf("post-resume replay: epoch=%d table=%d", rep2.Epoch, len(rep2.Table))
	}
	if e, _ := rep2.Table.Get(pid(1, 1, 0)); e.Meta.Version != 4 {
		t.Fatalf("post-resume version = %d, want 4", e.Meta.Version)
	}
}

// TestJournalImageDeterministic pins the core reproducibility property: the
// same (seed, operation sequence) writes bit-identical bytes to the disk.
func TestJournalImageDeterministic(t *testing.T) {
	image := func() [][]byte {
		world := testWorld(21)
		j, disk, _ := newTestJournal(t, world, Options{CheckpointEvery: 6})
		for v := uint64(1); v <= 3; v++ {
			for i := uint64(0); i < 7; i++ {
				j.Put(pid(1, 3, i), meta(v))
				if i%2 == 0 {
					j.Locate(pid(1, 3, i), DevSwap, 10+i, v)
				}
			}
		}
		j.DropDomain(cloak.DomainID(1))
		var blocks [][]byte
		for b := uint64(128); b < 128+testBlocks; b++ {
			blocks = append(blocks, disk.Peek(b))
		}
		return blocks
	}
	a, b := image(), image()
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("journal block %d differs between identical runs", i)
		}
	}
}

// TestJournalSelfHealsFailedWrite: an injected write failure leaves a stale
// tail block, but the next append rewrites the whole block, so nothing is
// lost unless the machine dies inside the window.
func TestJournalSelfHealsFailedWrite(t *testing.T) {
	world := testWorld(22)
	j, disk, key := newTestJournal(t, world, Options{})
	// Fail exactly one disk write, deterministically — armed after the
	// format so the failure lands on a log append, not the anchor commit.
	var plan fault.Plan
	plan.Rates[fault.SiteDiskWrite] = fault.Rate{FailPerMille: 1000, Max: 1}
	world.Fault = fault.NewInjector(22, plan)
	j.Put(pid(1, 1, 0), meta(1)) // this block write fails
	j.Put(pid(1, 1, 1), meta(1))
	j.Put(pid(1, 1, 2), meta(1))
	if j.WriteErrs() != 1 {
		t.Fatalf("write errors = %d, want exactly 1", j.WriteErrs())
	}
	rep := Replay(testWorld(23), disk, 128, testBlocks, key)
	if !rep.Anchored || len(rep.Table) != 3 {
		t.Fatalf("after self-heal: anchored=%v table=%d rejections=%v",
			rep.Anchored, len(rep.Table), rep.Rejections)
	}
}

func TestJournalWedgesWhenFull(t *testing.T) {
	world := testWorld(24)
	disk := mach.NewDisk(world, 64)
	key := SealKey(7)
	j, err := NewJournal(world, disk, 0, MinBlocks, key, Options{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("NewJournal: %v", err)
	}
	// MinBlocks geometry: 1-block checkpoint slots hold RecordsPerBlock
	// entries; exceed that and the journal must wedge, not panic or lie.
	for i := uint64(0); i < RecordsPerBlock*3; i++ {
		j.Put(pid(1, 1, i), meta(1))
	}
	if !j.Wedged() {
		t.Fatal("overfull journal did not wedge")
	}
}

// TestJournalZeroRateSitesConsumeNoPRNG: the journal adds many disk-site
// fault opportunities (every append and checkpoint block write). When those
// sites are zero-rate, they must consume no injector PRNG state, so an
// active site's schedule is identical with and without a journal running —
// the property that keeps existing fault-sweep goldens stable.
func TestJournalZeroRateSitesConsumeNoPRNG(t *testing.T) {
	var p fault.Plan
	p.Rates[fault.SiteSwapIn] = fault.Rate{FailPerMille: 500}
	run := func(withJournal bool) []fault.Injection {
		world := testWorld(31)
		world.Fault = fault.NewInjector(31, p)
		var j *Journal
		if withJournal {
			disk := mach.NewDisk(world, 64)
			var err error
			j, err = NewJournal(world, disk, 0, 32, SealKey(1), Options{CheckpointEvery: 16})
			if err != nil {
				t.Fatalf("NewJournal: %v", err)
			}
		}
		for n := uint64(0); n < 200; n++ {
			if j != nil {
				j.Put(pid(1, 1, n%8), meta(n+1))
			}
			world.CPU().InjectAt(fault.SiteSwapIn)
		}
		return world.Fault.Log()
	}
	plain, journaled := run(false), run(true)
	if len(plain) != len(journaled) {
		t.Fatalf("journal writes perturbed the schedule: %d vs %d injections", len(plain), len(journaled))
	}
	for i := range plain {
		if plain[i] != journaled[i] {
			t.Fatalf("injection %d diverged: %+v vs %+v", i, plain[i], journaled[i])
		}
	}
}

// TestJournalPerDomainQuota pins the resource-exhaustion containment
// contract: a domain that floods the journal past its entry quota wedges
// itself — typed counter, sealed state dropped, mutations ignored — while
// sibling domains, the shared log, and the global checkpoint keep working.
// Teardown recycles the wedged domain's budget.
func TestJournalPerDomainQuota(t *testing.T) {
	world := testWorld(9)
	j, disk, key := newTestJournal(t, world, Options{PerDomainEntries: 4})

	// The sibling journals comfortably under quota.
	for i := uint64(0); i < 3; i++ {
		j.Put(pid(1, 1, i), meta(i+1))
	}
	// The flooder pushes far past its quota: the fifth distinct page trips
	// the wedge, every later mutation is ignored.
	for i := uint64(0); i < 12; i++ {
		j.Put(pid(2, 1, i), meta(i+1))
	}
	if !j.DomainWedged(2) {
		t.Fatal("flooding domain not wedged")
	}
	if j.DomainWedged(1) {
		t.Fatal("sibling domain wedged by a neighbor's flood")
	}
	if j.Wedged() {
		t.Fatal("per-domain overflow wedged the shared journal")
	}
	if got := world.Stats.Get(sim.CtrJournalDomainWedged); got != 1 {
		t.Fatalf("CtrJournalDomainWedged = %d, want 1", got)
	}

	// The sibling keeps journaling after the wedge, and the global
	// checkpoint still quiesces.
	j.Put(pid(1, 1, 3), meta(9))
	j.Checkpoint()

	// Replay sees all four sibling entries and none of the flooder's: its
	// sealed state is gone (typed-unavailable), never silently stale.
	rep := Replay(testWorld(10), disk, 128, testBlocks, key)
	if !rep.Anchored {
		t.Fatal("replay lost its anchor")
	}
	for i := uint64(0); i < 4; i++ {
		if _, ok := rep.Table.Get(pid(1, 1, i)); !ok {
			t.Fatalf("sibling page %d missing after flood", i)
		}
	}
	for _, te := range rep.Table {
		if te.ID.Domain == 2 {
			t.Fatalf("wedged domain's page %v survived replay", te.ID)
		}
	}

	// Teardown releases the quota: a recycled domain ID journals again.
	j.DropDomain(cloak.DomainID(2))
	j.Put(pid(2, 2, 0), meta(1))
	if j.DomainWedged(2) {
		t.Fatal("DropDomain did not clear the wedge")
	}
	rep2 := Replay(testWorld(11), disk, 128, testBlocks, key)
	if _, ok := rep2.Table.Get(pid(2, 2, 0)); !ok {
		t.Fatal("recycled domain's page missing: budget not restored")
	}
}

// TestResumeCountsAdoptedEntries: the quota count is the domain's run in
// the table, so a journal resumed over a domain one entry under its quota
// admits one more entry and wedges on the next, and leaves its neighbours'
// runs alone.
func TestResumeCountsAdoptedEntries(t *testing.T) {
	opts := Options{PerDomainEntries: 4}
	j, disk, key := newTestJournal(t, testWorld(19), opts)
	j.Put(pid(1, 1, 0), meta(1))
	for i := uint64(0); i < 3; i++ {
		j.Put(pid(2, 1, i), meta(1))
	}
	j.Put(pid(3, 1, 0), meta(1))
	rep := Replay(testWorld(20), disk, 128, testBlocks, key)
	j2, err := Resume(testWorld(21), disk, 128, testBlocks, key, opts, rep.Epoch, rep.Table)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	j2.Put(pid(2, 1, 3), meta(1))
	if j2.DomainWedged(2) {
		t.Fatal("the entry that fills the quota was refused")
	}
	j2.Put(pid(2, 1, 4), meta(1))
	if !j2.DomainWedged(2) {
		t.Fatal("an entry past the quota was admitted")
	}
	got := j2.Entries()
	if len(got) != 2 || got[0].ID != pid(1, 1, 0) || got[1].ID != pid(3, 1, 0) {
		t.Fatalf("after the wedge the table holds %v, want the neighbours' pages alone", got)
	}
}

// FuzzReplay: whatever a hostile disk holds in the journal range, Replay
// never panics (a panic fails the target), refuses only with typed reasons,
// and accepts only what the sealing key vouches for: every entry of the
// rebuilt table matches a record somewhere in the image that verifies
// under the key. The seed corpus is the images the journal histories above
// leave behind, so a plain `go test` replays each of them.
func FuzzReplay(f *testing.F) {
	histories := []struct {
		opts Options
		run  func(*Journal, *mach.Disk)
	}{
		{Options{}, roundtripHistory},
		{Options{CheckpointEvery: 8}, rolloverHistory},
		{Options{}, dropDomainHistory},
		{Options{}, tornTailHistory},
		{Options{}, rollbackHistory},
		{Options{CheckpointEvery: 4}, staleEpochHistory},
	}
	for i, h := range histories {
		j, disk, _ := newTestJournal(f, testWorld(uint64(40+i)), h.opts)
		h.run(j, disk)
		var img []byte
		for b := uint64(128); b < 128+testBlocks; b++ {
			blk := disk.Peek(b)
			if blk == nil { // never written: reads as zeros
				blk = make([]byte, mach.BlockSize)
			}
			img = append(img, blk...)
		}
		f.Add(bytes.TrimRight(img, "\x00"))
	}
	key := SealKey(7)
	f.Fuzz(func(t *testing.T, img []byte) {
		img = img[:min(len(img), testBlocks*mach.BlockSize)]
		world := testWorld(1)
		disk := mach.NewDisk(world, testBlocks)
		for off := 0; off < len(img); off += mach.BlockSize {
			disk.Poke(uint64(off/mach.BlockSize), img[off:])
		}
		rep := Replay(world, disk, 0, testBlocks, key)
		for _, r := range rep.Rejections {
			if r.Reason < RejectBadMAC || r.Reason > RejectNoAnchor {
				t.Fatalf("rejection %+v has no reason", r)
			}
			if r.Phase != "super" && r.Phase != "checkpoint" && r.Phase != "log" {
				t.Fatalf("rejection %+v in unknown phase", r)
			}
		}
		if !rep.Anchored && len(rep.Table) != 0 {
			t.Fatalf("unanchored replay rebuilt %d entries", len(rep.Table))
		}

		seal := NewSealer(key)
		var sealed []Record
		for off := 0; off+RecordSize <= len(img); off += RecordSize {
			if r, ok := decode(img[off:off+RecordSize], seal); ok {
				sealed = append(sealed, r)
			}
		}
		backs := func(match func(Record) bool) bool {
			for _, r := range sealed {
				if match(r) {
					return true
				}
			}
			return false
		}
		for _, te := range rep.Table {
			id, e := te.ID, te.Entry
			if !e.HasMeta && !e.HasLoc {
				t.Fatalf("entry %v carries neither metadata nor a location", id)
			}
			if e.HasMeta && !backs(func(r Record) bool {
				return r.ID == id && (r.Kind == KindPut || r.Kind == KindSnapshot) &&
					e.Meta == cloak.Meta{IV: r.IV, Hash: r.Hash, Version: r.Version}
			}) {
				t.Fatalf("entry %v: metadata %+v matches no sealed record in the image", id, e.Meta)
			}
			if e.HasLoc && !backs(func(r Record) bool {
				return r.ID == id && (r.Kind == KindLocate || r.Kind == KindSnapshot && r.Dev != DevNone) &&
					r.Dev == e.Dev && r.Block == e.Block && r.Version == e.LocVersion
			}) {
				t.Fatalf("entry %v: location %d/%d@v%d matches no sealed record in the image", id, e.Dev, e.Block, e.LocVersion)
			}
		}
	})
}

// TestJournalTableMatchesModel drives the journal through a seeded mix of
// puts, locates, deletes and domain drops over a small page space (so
// updates, reinsertions and whole-domain runs all recur) and checks after
// every step that Entries is exactly a map-backed model's table in PageID
// order. The quota variant's model mirrors the per-domain quota: a new entry
// past it wedges the domain and drops its entries, a wedged domain's
// mutations are ignored, and teardown restores a clean budget. Its page
// space is small enough that domains sit at the quota often, so deletes and
// re-inserts at the boundary recur. After each checkpoint, replaying the
// disk must rebuild exactly the model's entries that carry metadata, each
// with its location only where that location holds the current version.
func TestJournalTableMatchesModel(t *testing.T) {
	for _, c := range []struct {
		quota              int
		resources, indices uint64
	}{
		{0, 3, 8},
		{6, 2, 4},
	} {
		t.Run(fmt.Sprintf("quota%d", c.quota), func(t *testing.T) {
			testJournalTableMatchesModel(t, c.quota, c.resources, c.indices)
		})
	}
}

func testJournalTableMatchesModel(t *testing.T, quota int, resources, indices uint64) {
	world := testWorld(3)
	disk := mach.NewDisk(world, 1024)
	key := SealKey(3)
	j, err := NewJournal(world, disk, 0, 1024, key, Options{CheckpointEvery: 16, PerDomainEntries: quota})
	if err != nil {
		t.Fatal(err)
	}
	model := map[cloak.PageID]Entry{}
	wedged := map[cloak.DomainID]bool{}
	drop := func(d cloak.DomainID) {
		for id := range model {
			if id.Domain == d {
				delete(model, id)
			}
		}
	}
	count := func(d cloak.DomainID) int {
		n := 0
		for id := range model {
			if id.Domain == d {
				n++
			}
		}
		return n
	}
	var wedges, boundaryDeletes, boundaryInserts, checkpoints int
	admit := func(id cloak.PageID) bool {
		_, live := model[id]
		switch n := count(id.Domain); {
		case quota == 0 || live:
			return true
		case wedged[id.Domain]:
			return false
		case n >= quota:
			wedged[id.Domain] = true
			drop(id.Domain)
			wedges++
			return false
		case n == quota-1:
			boundaryInserts++
		}
		return true
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for step := 0; step < 4000; step++ {
		id := pid(1+rng.Uint64N(4), rng.Uint64N(resources), rng.Uint64N(indices))
		v := 1 + rng.Uint64N(50)
		_, ckpts := j.Marks()
		ckptsBefore := len(ckpts)
		switch op := rng.IntN(20); {
		case op < 9:
			j.Put(id, meta(v))
			if admit(id) {
				e := model[id]
				e.Meta, e.HasMeta = meta(v), true
				model[id] = e
			}
		case op < 15:
			j.Locate(id, DevSwap, v, v)
			if admit(id) {
				e := model[id]
				e.Dev, e.Block, e.LocVersion, e.HasLoc = DevSwap, v, v, true
				model[id] = e
			}
		case op < 19:
			j.Delete(id)
			if _, live := model[id]; live && count(id.Domain) == quota {
				boundaryDeletes++
			}
			delete(model, id)
		default:
			j.DropDomain(id.Domain)
			drop(id.Domain)
			delete(wedged, id.Domain)
		}
		got := j.Entries()
		if len(got) != len(model) {
			t.Fatalf("step %d: journal holds %d entries, model %d", step, len(got), len(model))
		}
		for i, te := range got {
			if i > 0 && !got[i-1].ID.Less(te.ID) {
				t.Fatalf("step %d: entries out of PageID order at %d: %v then %v", step, i, got[i-1].ID, te.ID)
			}
			if e, ok := model[te.ID]; !ok || e != te.Entry {
				t.Fatalf("step %d: entry %v = %+v, model has %+v (present %v)", step, te.ID, te.Entry, e, ok)
			}
		}
		for d := cloak.DomainID(1); d <= 4; d++ {
			if j.DomainWedged(d) != wedged[d] {
				t.Fatalf("step %d: domain %d wedged %v, model %v", step, d, j.DomainWedged(d), wedged[d])
			}
		}
		if _, ckpts := j.Marks(); len(ckpts) > ckptsBefore {
			checkpoints++
			var want Table
			for _, te := range got {
				e := te.Entry
				if !e.HasMeta {
					continue
				}
				if e.LocVersion != e.Meta.Version {
					e.Dev, e.Block, e.LocVersion, e.HasLoc = 0, 0, 0, false
				}
				want = append(want, TableEntry{ID: te.ID, Entry: e})
			}
			rep := Replay(testWorld(4), disk, 0, 1024, key)
			if len(rep.Table) != len(want) {
				t.Fatalf("step %d: checkpoint replays to %d entries, want %d", step, len(rep.Table), len(want))
			}
			for i, te := range rep.Table {
				if te != want[i] {
					t.Fatalf("step %d: checkpoint replays entry %d as %v %+v, want %v %+v",
						step, i, te.ID, te.Entry, want[i].ID, want[i].Entry)
				}
			}
		}
	}
	if j.Wedged() {
		t.Fatal("journal wedged: the range is too small for the model's table")
	}
	if checkpoints == 0 {
		t.Fatal("the run took no checkpoint")
	}
	if quota > 0 && (wedges == 0 || boundaryDeletes == 0 || boundaryInserts == 0) {
		t.Fatalf("quota boundary not covered: %d wedges, %d deletes and %d inserts at the boundary",
			wedges, boundaryDeletes, boundaryInserts)
	}
}

// TestCheckpointAllocsNothing: the table is already in PageID order and the
// block image is the journal's own, so once each checkpoint slot's blocks
// exist on the disk a checkpoint allocates nothing.
func TestCheckpointAllocsNothing(t *testing.T) {
	world := testWorld(4)
	j, _, _ := newTestJournal(t, world, Options{CheckpointEvery: 1 << 30})
	for i := uint64(0); i < 2*RecordsPerBlock+5; i++ {
		j.Put(pid(1+i%3, 1, i), meta(i+1))
	}
	j.Locate(pid(9, 1, 1), DevSwap, 5, 1) // location only: never serialized
	j.Checkpoint()                        // both slots' blocks now exist
	j.Checkpoint()
	if n := testing.AllocsPerRun(50, j.Checkpoint); n != 0 {
		t.Fatalf("Checkpoint allocates %v times per call, want 0", n)
	}
	if j.Wedged() || j.WriteErrs() != 0 {
		t.Fatal("checkpoints wedged or failed")
	}
}

// TestJournalImagePinned pins the bytes a seeded history leaves on the
// journal range, so how the writer keeps its table cannot change what
// reaches the disk. Puts, locates, deletes and domain drops arrive out of
// PageID order across four domains, location-only entries stay out of
// checkpoints, and checkpoints span several blocks, so ordering, filtering
// and block packing all reach the hash.
func TestJournalImagePinned(t *testing.T) {
	const want = "9ae38ad1401119c31cecf6f5845966437ba0845119dc747b1c24323a9b9f10fd"
	world := testWorld(5)
	disk := mach.NewDisk(world, 256)
	j, err := NewJournal(world, disk, 0, 256, SealKey(5), Options{CheckpointEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for step := 0; step < 3000; step++ {
		id := pid(1+rng.Uint64N(4), rng.Uint64N(4), rng.Uint64N(24))
		v := 1 + rng.Uint64N(50)
		switch op := rng.IntN(40); {
		case op < 22:
			j.Put(id, meta(v))
		case op < 34:
			j.Locate(id, DevSwap, v, v)
		case op < 39:
			j.Delete(id)
		default:
			j.DropDomain(id.Domain)
		}
	}
	j.Checkpoint()
	h := sha256.New()
	for b := uint64(0); b < 256; b++ {
		h.Write(disk.Peek(b))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("journal image SHA-256 %s, want %s", got, want)
	}
}

// TestCheckpointCommitOrder journals a seeded table, crashes the machine
// inside each block write of the next checkpoint, and replays the disk;
// then it replays once more after that checkpoint commits. Every entry
// sealed before the checkpoint began must come back at its version: the
// snapshot blocks fill the inactive slot before the superblock names them,
// so a crash anywhere up to the commit leaves the previous epoch's
// checkpoint and log authoritative, and a committed checkpoint holds every
// entry. The crash points are the disk's own write spans, so they do not
// depend on the cost model.
func TestCheckpointCommitOrder(t *testing.T) {
	history := func() (*sim.World, *Journal, *mach.Disk, [32]byte, map[cloak.PageID]cloak.Meta) {
		world := testWorld(8)
		world.EnableTrace(1 << 16)
		j, disk, key := newTestJournal(t, world, Options{CheckpointEvery: 48})
		rng := rand.New(rand.NewPCG(8, 8))
		version := map[cloak.PageID]uint64{}
		for step := 0; step < 400; step++ {
			id := pid(1+rng.Uint64N(3), rng.Uint64N(4), rng.Uint64N(12))
			switch op := rng.IntN(10); {
			case op < 7:
				version[id] += 1 + rng.Uint64N(3) // replay refuses a version that goes back
				j.Put(id, meta(version[id]))
			case op < 9:
				j.Locate(id, DevSwap, rng.Uint64N(128), version[id])
			default:
				j.Delete(id)
			}
		}
		sealed := map[cloak.PageID]cloak.Meta{}
		for _, te := range j.Entries() {
			if te.Entry.HasMeta {
				sealed[te.ID] = te.Entry.Meta
			}
		}
		return world, j, disk, key, sealed
	}
	check := func(when string, world *sim.World, disk *mach.Disk, key [32]byte, sealed map[cloak.PageID]cloak.Meta) {
		t.Helper()
		rep := Replay(world, disk, 128, testBlocks, key)
		for id, want := range sealed {
			if got, _ := rep.Table.Get(id); !got.HasMeta || got.Meta != want {
				t.Fatalf("%s: entry %v sealed at version %d came back at version %d (metadata present %v)",
					when, id, want.Version, got.Meta.Version, got.HasMeta)
			}
		}
	}

	world, j, disk, key, sealed := history()
	if len(sealed) <= 2*RecordsPerBlock {
		t.Fatalf("history sealed %d entries; the checkpoint must span several blocks", len(sealed))
	}
	t0 := world.Now()
	j.Checkpoint()
	check("after the checkpoint committed", world, disk, key, sealed)
	spans, _ := world.TraceSpans()
	var writes []obs.Span
	for _, s := range spans {
		if s.Kind == obs.KindDisk && s.Name == "write" && s.Start >= uint64(t0) {
			writes = append(writes, s)
		}
	}
	if len(writes) < 3 {
		t.Fatalf("checkpoint wrote %d blocks, want snapshot blocks and a superblock", len(writes))
	}
	for k, w := range writes {
		world, j, disk, key, sealed := history()
		world.Clock.SetCrashAt(sim.Cycles(w.Start + 1))
		func() {
			defer func() {
				if r := recover(); !sim.IsCrash(r) {
					panic(r)
				}
			}()
			j.Checkpoint()
			t.Fatalf("no crash inside checkpoint block write %d", k)
		}()
		check(fmt.Sprintf("crash inside checkpoint block write %d of %d (block %d)", k, len(writes), w.Arg),
			world, disk, key, sealed)
	}
}
