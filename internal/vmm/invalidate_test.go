package vmm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// sharedFrameRig maps one cloaked frame (GPPN 7, the owner's VPN 20) in the
// owner's system view and in four foreign address spaces at VPNs 30..33, all
// through the boot vCPU. The TLB entries of the second and fourth foreign
// spaces are dropped, so the spaces differ in what a shadow drop of the
// frame charges. The returned read is the owner's decrypting app-view read,
// which must drop all five mappings.
func sharedFrameRig(t *testing.T) (*testRig, func() error) {
	t.Helper()
	// A small machine keeps the thousands of rigs the crash sweep boots cheap.
	r := newSizedRig(t, 8, Options{MetaCacheSize: 16})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("shared frame")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sysRead(20, 8); err != nil { // encrypts the frame
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		as := r.v.CreateAddressSpace(mmu.NewPageTable())
		r.mapGuest(as, 30+i, 7)
		if _, err := r.v.Translate(as, ViewSystem, 30+i, mmu.AccessRead, false); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			r.v.tlb().InvalidatePage(r.w.Boot(), 30+i)
		}
	}
	return r, func() error {
		_, err := r.appRead(20, 8)
		return err
	}
}

// TestDropFrameMappingsCrashDeterministic sweeps a crash deadline over the
// tail of the owner's decrypting read, where the VMM drops the frame's
// shadow mappings space by space. Each space charges a different pattern, so
// the counters a crash leaves behind depend on the order the spaces are
// visited; that order must be fixed (ASID order), never host map order.
func TestDropFrameMappingsCrashDeterministic(t *testing.T) {
	r, read := sharedFrameRig(t)
	start, drops := r.w.Now(), r.w.Stats.Get(sim.CtrShadowDrop)
	if err := read(); err != nil {
		t.Fatal(err)
	}
	if got := r.w.Stats.Get(sim.CtrShadowDrop) - drops; got != 5 {
		t.Fatalf("the read dropped %d shadow mappings, want 5", got)
	}
	end := r.w.Now()
	if end-start < 4000 {
		t.Fatalf("decrypting read took %d cycles, want >= 4000", end-start)
	}
	crashAt := func(deadline sim.Cycles) map[sim.Counter]uint64 {
		r, read := sharedFrameRig(t)
		if r.w.Now() != start {
			t.Fatalf("rig set-up ends at cycle %d, want %d", r.w.Now(), start)
		}
		r.w.Clock.SetCrashAt(deadline)
		func() {
			defer func() {
				if p := recover(); p != nil && !sim.IsCrash(p) {
					panic(p)
				}
			}()
			_ = read()
		}()
		if !r.w.Clock.Crashed() {
			t.Fatalf("deadline %d did not fire", deadline)
		}
		return r.w.Stats.Snapshot()
	}
	for deadline := end - 4000; deadline < end; deadline += 7 {
		want := crashAt(deadline)
		for rep := 1; rep < 12; rep++ {
			if got := crashAt(deadline); !reflect.DeepEqual(got, want) {
				t.Fatalf("crash at cycle %d: run %d left counters %v, run 0 left %v",
					deadline, rep, got, want)
			}
		}
	}
}

// TestCloneUnwindJournalDeterministic forks a 6-page cloaked domain on a
// journaled machine while the kernel corrupts the sixth page's copy, so the
// clone unwinds after re-cloaking five pages. The unwind journals one delete
// per page; the records must reach the journal device in GPPN order, making
// its blocks identical run to run.
func TestCloneUnwindJournalDeterministic(t *testing.T) {
	const pages = 6
	run := func() [][]byte {
		r := newRig(t, Options{})
		disk := mach.NewDisk(r.w, 64)
		j, err := persist.NewJournal(r.w, disk, 0, 64, persist.SealKey(1), persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r.v.AttachJournal(j)
		r.cloakSetup(20, pages)
		child := r.v.CreateAddressSpace(mmu.NewPageTable())
		buf := make([]byte, mach.PageSize)
		for i := uint64(0); i < pages; i++ {
			vpn, gppn, copyGPPN := 20+i, mach.GPPN(7+i), mach.GPPN(30+i)
			r.mapGuest(r.as, vpn, gppn)
			if err := r.appWrite(vpn, []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
			// The kernel's eager fork copy through its direct map.
			if err := r.v.PhysRead(gppn, 0, buf); err != nil {
				t.Fatal(err)
			}
			if i == pages-1 {
				buf[0] ^= 0xFF
			}
			if err := r.v.PhysWrite(copyGPPN, 0, buf); err != nil {
				t.Fatal(err)
			}
			r.mapGuest(child, vpn, copyGPPN)
		}
		var sv *SecViolation
		if _, _, err := r.conn.CloneInto(child); !errors.As(err, &sv) {
			t.Fatalf("CloneInto err = %v, want a verification failure", err)
		}
		if got := r.w.Stats.Get(sim.CtrPageEncrypt); got != 2*pages-1 {
			t.Fatalf("page encrypts = %d, want %d (the clone must unwind after re-cloaking five pages)",
				got, 2*pages-1)
		}
		blocks := make([][]byte, disk.NumBlocks())
		for b := range blocks {
			blocks[b] = disk.Peek(uint64(b))
		}
		return blocks
	}
	want := run()
	for i := 1; i < 20; i++ {
		got := run()
		for b := range want {
			if !bytes.Equal(got[b], want[b]) {
				t.Fatalf("run %d: journal block %d differs from run 0", i, b)
			}
		}
	}
}

// TestShadowBackmapMatchesWalk drives random Map (fresh, remap to another
// PN, flags-only change), Unmap and Clear steps against one shadow table and
// checks after every step that the backmap, flattened to PN -> VPNs (the
// inline first mapper, then the rest), is exactly what a full walk of the
// table yields: for every PN, its mapping VPNs in ascending order, and no
// entry for a PN that no present PTE maps.
func TestShadowBackmapMatchesWalk(t *testing.T) {
	s := newShadowTable()
	rng := sim.NewRNG(11)
	for step := 0; step < 5000; step++ {
		// Spread the 64 VPNs over several directories of the table.
		vpn := uint64(rng.Intn(64)) * 97
		switch op := rng.Intn(200); {
		case op < 90: // map, or remap to another PN
			s.Map(vpn, mmu.PTE{PN: uint64(rng.Intn(16)), Flags: mmu.FlagPresent | mmu.FlagUser})
		case op < 120: // change of flags only
			if old := s.Lookup(vpn); old.Present() {
				s.Map(vpn, mmu.PTE{PN: old.PN, Flags: old.Flags ^ mmu.FlagWritable})
			}
		case op < 199:
			s.Unmap(vpn)
		default:
			s.Clear()
		}
		want := map[uint64][]uint64{}
		s.pt.Range(func(vpn uint64, pte mmu.PTE) bool {
			want[pte.PN] = append(want[pte.PN], vpn)
			return true
		})
		got := map[uint64][]uint64{}
		for pn, m := range s.back {
			got[pn] = append([]uint64{m.first}, m.more...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: backmap %v, walk yields %v", step, got, want)
		}
	}
}
