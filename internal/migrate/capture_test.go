package migrate

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
)

// swapPages is the swap victim's size: more cloaked pages than e2eConfig's
// 48 pages of RAM hold, so a capture finds some pages resident and reads
// the rest back from swap.
const swapPages = 64

// swapRegister installs a victim that stamps swapPages cloaked pages and
// then sweeps them twice, paging throughout.
func swapRegister(sys *core.System) {
	sys.Register("victim", func(e core.Env) {
		base := must(e.Alloc(swapPages))
		for i := 0; i < swapPages; i++ {
			va := base + core.Addr(i*core.PageSize)
			e.WriteMem(va, e2eSecret)
			e.Store64(va+64, uint64(i))
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < swapPages; i++ {
				if e.Load64(base+core.Addr(i*core.PageSize)+64) != uint64(i) {
					e.Exit(1)
				}
			}
		}
		e.Exit(0)
	})
}

// swapRun runs the swap victim on a fresh e2eConfig(seed) machine, calls
// hook with the machine and the victim's domain at the middle of the run
// (a migration point), and then runs the machine to the victim's exit.
func swapRun(t *testing.T, seed uint64, hook func(sys *core.System, d cloak.DomainID)) *core.System {
	t.Helper()
	probe := core.NewSystem(e2eConfig(seed))
	swapRegister(probe)
	if _, err := probe.Spawn("victim", core.Cloaked()); err != nil {
		t.Fatal(err)
	}
	probe.Run()

	sys := core.NewSystem(e2eConfig(seed))
	swapRegister(sys)
	pid, err := sys.Spawn("victim", core.Cloaked())
	if err != nil {
		t.Fatal(err)
	}
	sys.MigrateAt(probe.Now()/2, func() { hook(sys, sys.DomainOf(pid)) })
	sys.Run()
	return sys
}

// dataPages counts the checkpoint's pages that carry ciphertext.
func dataPages(ckpt *Checkpoint) int {
	n := 0
	for _, p := range ckpt.Pages {
		if p.Data != nil {
			n++
		}
	}
	return n
}

// TestMigrateBlobPinned pins the wire bytes of one seeded migration, so how
// capture and encode move pages on the host cannot change what goes on the
// wire. The checkpoint holds more ciphertext pages than the machine has
// RAM, so both sources — resident frames and swap reads — are in the
// pinned bytes.
func TestMigrateBlobPinned(t *testing.T) {
	const want = "6ded8c58c04fada3001c76c45aaf4eac5508ccbea554ed9fe7dc34ce8b583ec8"
	var blob []byte
	var merr error
	sys := swapRun(t, 7, func(sys *core.System, d cloak.DomainID) {
		blob, _, merr = Migrate(sys, d)
	})
	if merr != nil {
		t.Fatalf("migrate: %v", merr)
	}
	ckpt, rejs, err := Decode(blob, SealKeyFor(persist.SealKey(sys.Seed())))
	if err != nil || len(rejs) != 0 {
		t.Fatalf("decode: %v, %d rejections", err, len(rejs))
	}
	if ram := e2eConfig(7).MemoryPages; dataPages(ckpt) <= ram {
		t.Fatalf("%d ciphertext pages fit in %d pages of RAM: no page came from swap", dataPages(ckpt), ram)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("blob of %d bytes has SHA-256 %s, want %s", len(blob), got, want)
	}
}

// TestCaptureSwapReadError: a swap read that fails during capture costs
// exactly its page. The page travels in ReadError with no ciphertext and
// takes no slot, so the ciphertext section has no hole: the blob decodes
// whole, and every other page lands verified on the destination (a hole
// would shift every later page onto its neighbour's bytes).
func TestCaptureSwapReadError(t *testing.T) {
	var lost cloak.PageID
	var ckpt *Checkpoint
	var cerr error
	sys := swapRun(t, 7, func(sys *core.System, d cloak.DomainID) {
		// Find a page that lives only on swap, and point its journaled
		// location past the end of the device — a kernel lying about the
		// slot — so capture's read of it fails on every attempt.
		sys.VMM.EncryptAllPlaintext(d)
		resident := map[cloak.PageID]bool{}
		for _, rp := range sys.VMM.ResidentCiphertexts(d) {
			resident[rp.ID] = true
		}
		for _, te := range sys.Journal.Entries() {
			if _, st := core.Locate(te.Entry); te.ID.Domain == d && st == 0 && !resident[te.ID] {
				lost = te.ID
				sys.Journal.Locate(te.ID, persist.DevSwap, sys.Kernel.SwapDisk().NumBlocks(), te.Entry.Meta.Version)
				break
			}
		}
		ckpt, cerr = Capture(sys, d)
	})
	if cerr != nil {
		t.Fatalf("capture: %v", cerr)
	}
	if lost == (cloak.PageID{}) {
		t.Fatal("no page lived only on swap at the capture point")
	}
	after := 0 // ciphertext pages ordered after the lost one
	for _, p := range ckpt.Pages {
		switch {
		case p.ID == lost && (p.State != core.ReadError || p.Data != nil):
			t.Fatalf("lost page %v: state %v, %d data bytes; want read-error and none", p.ID, p.State, len(p.Data))
		case lost.Less(p.ID) && p.Data != nil:
			after++
		}
	}
	if after == 0 {
		t.Fatal("no ciphertext page follows the lost one, so a hole could not show")
	}

	blob := Encode(ckpt, SealKeyFor(persist.SealKey(sys.Seed())))
	n, m := len(ckpt.Pages), len(ckpt.Threads)
	if want := (2+n+m)*RecordSize + dataPages(ckpt)*mach.PageSize; len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d: %d records and %d ciphertext pages", len(blob), want, 2+n+m, dataPages(ckpt))
	}
	// Encode sealed the records into capture's own buffer, whose slots
	// already hold the pages' ciphertext, one after another.
	at := (2 + n + m) * RecordSize
	for _, p := range ckpt.Pages {
		if p.Data == nil {
			continue
		}
		if &p.Data[0] != &blob[at] {
			t.Fatalf("page %v's ciphertext is not the blob's slot at byte %d", p.ID, at)
		}
		at += mach.PageSize
	}
	dst := core.NewSystem(e2eConfig(7))
	rep, err := Restore(dst, blob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(rep.Rejections) != 0 || rep.Unavailable != 1 || rep.Recovered != n-1 {
		t.Fatalf("restore: %d rejections, %d unavailable, %d of %d recovered; want only the lost page unavailable",
			len(rep.Rejections), rep.Unavailable, rep.Recovered, n)
	}
	for _, p := range rep.Pages {
		if p.ID == lost && p.State != core.ReadError {
			t.Fatalf("lost page restored as %v, want read-error", p.State)
		}
	}
}

// TestMigrateAllocatesOneBlob: Migrate's host allocations are its one blob
// plus well under a page of bookkeeping per page. Each page is copied once,
// straight into the blob; a snapshot copy per page, or a second blob, would
// add a whole page per page.
func TestMigrateAllocatesOneBlob(t *testing.T) {
	var blob []byte
	var merr error
	var before, after runtime.MemStats
	swapRun(t, 7, func(sys *core.System, d cloak.DomainID) {
		runtime.ReadMemStats(&before)
		blob, _, merr = Migrate(sys, d)
		runtime.ReadMemStats(&after)
	})
	if merr != nil {
		t.Fatalf("migrate: %v", merr)
	}
	extra := int(after.TotalAlloc-before.TotalAlloc) - len(blob)
	if limit := swapPages * mach.PageSize / 2; extra > limit {
		t.Fatalf("migrate allocated %d bytes beyond its %d-byte blob, want at most %d for %d pages",
			extra, len(blob), limit, swapPages)
	}
}
