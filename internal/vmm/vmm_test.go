package vmm

import (
	"bytes"
	"errors"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
)

// testRig wires a VMM with one address space whose guest page table the
// test drives directly, playing the roles of both guest kernel and app.
type testRig struct {
	t    *testing.T
	w    *sim.World
	v    *VMM
	as   *AddressSpace
	conn *DomainConn // set by cloakSetup
}

func newRig(t *testing.T, opts Options) *testRig {
	t.Helper()
	return newSizedRig(t, 64, opts)
}

// newSizedRig is newRig over a guest of the given number of pages.
func newSizedRig(t *testing.T, pages int, opts Options) *testRig {
	t.Helper()
	w := sim.NewWorld(sim.DefaultCostModel(), 7)
	v, err := New(w, Config{GuestPages: pages, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	as := v.CreateAddressSpace(mmu.NewPageTable())
	return &testRig{t: t, w: w, v: v, as: as}
}

// mapGuest installs a guest PTE vpn -> gppn with user RW permissions.
func (r *testRig) mapGuest(as *AddressSpace, vpn uint64, gppn mach.GPPN) {
	as.guestPT.Map(vpn, mmu.PTE{PN: uint64(gppn),
		Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})
}

// cloakSetup creates a domain and registers a cloaked region of n pages at
// baseVPN, returning the resource ID.
func (r *testRig) cloakSetup(baseVPN, n uint64) cloak.ResourceID {
	r.t.Helper()
	if r.as.Domain() == 0 {
		conn, err := r.v.HCCreateDomain(r.as)
		if err != nil {
			r.t.Fatal(err)
		}
		r.conn = conn
	}
	res, err := r.conn.AllocResource()
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.conn.RegisterRegion(Region{BaseVPN: baseVPN, Pages: n, Resource: res, Cloaked: true}); err != nil {
		r.t.Fatal(err)
	}
	return res
}

func (r *testRig) appWrite(vpn uint64, data []byte) error {
	return r.v.WriteVirt(r.as, ViewApp, mach.Addr(vpn*mach.PageSize), data, true)
}

func (r *testRig) appRead(vpn uint64, n int) ([]byte, error) {
	buf := make([]byte, n)
	err := r.v.ReadVirt(r.as, ViewApp, mach.Addr(vpn*mach.PageSize), buf, true)
	return buf, err
}

func (r *testRig) sysRead(vpn uint64, n int) ([]byte, error) {
	buf := make([]byte, n)
	err := r.v.ReadVirt(r.as, ViewSystem, mach.Addr(vpn*mach.PageSize), buf, false)
	return buf, err
}

func TestBootPmap(t *testing.T) {
	r := newRig(t, Options{})
	if r.v.GuestPages() != 64 {
		t.Fatalf("GuestPages = %d, want 64", r.v.GuestPages())
	}
	// Distinct guest pages must be backed by distinct machine frames.
	seen := map[mach.MPN]bool{}
	for g := 0; g < 64; g++ {
		mpn, ok := r.v.machineOf(mach.GPPN(g))
		if !ok || mpn == 0 || seen[mpn] {
			t.Fatalf("gppn %d maps to bad mpn %d", g, mpn)
		}
		seen[mpn] = true
	}
	if _, ok := r.v.machineOf(64); ok {
		t.Fatal("machineOf accepted a GPPN beyond guest memory")
	}
}

func TestUncloakedTranslateAndFault(t *testing.T) {
	r := newRig(t, Options{})
	r.mapGuest(r.as, 5, 3)
	mpn, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := r.v.machineOf(3); mpn != want {
		t.Fatalf("wrong frame: %d", mpn)
	}
	// Second access must be a TLB hit.
	hits := r.w.Stats.Get(sim.CtrTLBHit)
	if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
		t.Fatal(err)
	}
	if r.w.Stats.Get(sim.CtrTLBHit) != hits+1 {
		t.Fatal("second access missed the TLB")
	}
	// Unmapped VPN raises a guest fault.
	_, err = r.v.Translate(r.as, ViewApp, 99, mmu.AccessRead, true)
	var f *mmu.Fault
	if !errors.As(err, &f) || f.Reason != mmu.FaultNotPresent {
		t.Fatalf("err = %v, want not-present guest fault", err)
	}
}

func TestWriteToReadOnlyGuestPTEFaults(t *testing.T) {
	r := newRig(t, Options{})
	r.as.guestPT.Map(5, mmu.PTE{PN: 3, Flags: mmu.FlagPresent | mmu.FlagUser}) // RO
	if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
		t.Fatal(err)
	}
	_, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessWrite, true)
	var f *mmu.Fault
	if !errors.As(err, &f) || f.Reason != mmu.FaultProtection {
		t.Fatalf("err = %v, want protection fault", err)
	}
}

// TestWildGuestPNIsResourceFault: a guest PTE whose PN is past what a page
// table entry holds, written through GuestPT as a hostile kernel could,
// reads back as a PN no frame has, never as a truncated one (1<<56|3 would
// truncate to frame 3, 1<<60 to frame 0). So every access through it is a
// typed *ResourceFault, and no shadow table maps a frame for it.
func TestWildGuestPNIsResourceFault(t *testing.T) {
	const vpn = 9
	for _, pn := range []uint64{1 << 60, 1<<56 | 3} {
		r := newRig(t, Options{})
		r.as.GuestPT().Map(vpn, mmu.PTE{PN: pn, Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})
		if got := mach.GPPN(r.as.GuestPT().Lookup(vpn).PN); got < mach.GPPN(r.v.GuestPages()) {
			t.Fatalf("PN %#x reads back as guest frame %d", pn, got)
		}
		accesses := []func() error{
			func() error { _, err := r.appRead(vpn, 8); return err },
			func() error { return r.appWrite(vpn, []byte("x")) },
			func() error { _, err := r.sysRead(vpn, 8); return err },
		}
		for i, access := range accesses {
			var rf *ResourceFault
			if err := access(); !errors.As(err, &rf) {
				t.Fatalf("PN %#x access %d: err = %v, want *ResourceFault", pn, i, err)
			}
		}
		if n := r.eventCount(EventResourceFault); n != len(accesses) {
			t.Fatalf("PN %#x: %d resource-fault events, want %d", pn, n, len(accesses))
		}
		for cpu := range r.as.shadows {
			for view := View(0); view < numViews; view++ {
				if pte := r.as.shadow(cpu, view).Lookup(vpn); pte != (mmu.PTE{}) {
					t.Fatalf("PN %#x: shadow (cpu %d, view %d) maps %v", pn, cpu, view, pte)
				}
			}
		}
	}
}

func TestGuestADBitsMirrored(t *testing.T) {
	r := newRig(t, Options{})
	r.mapGuest(r.as, 5, 3)
	if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessWrite, true); err != nil {
		t.Fatal(err)
	}
	pte := r.as.guestPT.Lookup(5)
	if !pte.Flags.Has(mmu.FlagAccessed | mmu.FlagDirty) {
		t.Fatalf("guest PTE A/D not set: %v", pte)
	}
}

func TestReadWriteVirtRoundTrip(t *testing.T) {
	r := newRig(t, Options{})
	r.mapGuest(r.as, 10, 4)
	r.mapGuest(r.as, 11, 5)
	// Cross-page write.
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := r.v.WriteVirt(r.as, ViewApp, mach.Addr(10*mach.PageSize+100), data, true); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5000)
	if err := r.v.ReadVirt(r.as, ViewApp, mach.Addr(10*mach.PageSize+100), got, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("cross-page round trip corrupted data")
	}
}

func TestCloakFirstTouchZeroFill(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	// Dirty the frame first, as a malicious OS would to leak old data in.
	frame := r.v.frame(7)
	frame[0] = 0xEE
	got, err := r.appRead(20, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("first touch of cloaked page not zero-filled by VMM")
		}
	}
	if n := len(r.v.domainPages(r.conn.Domain(), nil)); n != 1 {
		t.Fatalf("%d registered pages, want 1", n)
	}
}

func TestCloakKernelSeesOnlyCiphertext(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	secret := []byte("attack at dawn - extremely secret")
	if err := r.appWrite(20, secret); err != nil {
		t.Fatal(err)
	}
	// Kernel (system view) reads the same VA.
	sysView, err := r.sysRead(20, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sysView, secret[:8]) {
		t.Fatal("kernel observed plaintext of a cloaked page")
	}
	if r.w.Stats.Get(sim.CtrPageEncrypt) == 0 {
		t.Fatal("no encryption happened on kernel access")
	}
	// App reads again: transparently decrypted.
	back, err := r.appRead(20, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, secret) {
		t.Fatal("app did not get its plaintext back")
	}
	if r.w.Stats.Get(sim.CtrPageDecrypt) == 0 {
		t.Fatal("no decryption recorded")
	}
}

func TestCloakTamperDetected(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("integrity matters")); err != nil {
		t.Fatal(err)
	}
	// Kernel touches the page (forces encryption), then flips a bit.
	if _, err := r.sysRead(20, 8); err != nil {
		t.Fatal(err)
	}
	one := []byte{0xFF}
	if err := r.v.WriteVirt(r.as, ViewSystem, mach.Addr(20*mach.PageSize+3), one, false); err != nil {
		t.Fatal(err)
	}
	// App access must be denied with a security violation.
	_, err := r.appRead(20, 8)
	var sv *SecViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want SecViolation", err)
	}
	if sv.Event.Kind != EventIntegrityViolation {
		t.Fatalf("event kind = %v", sv.Event.Kind)
	}
	found := false
	for _, e := range r.v.Events() {
		if e.Kind == EventIntegrityViolation {
			found = true
		}
	}
	if !found {
		t.Fatal("violation not in audit log")
	}
}

func TestCloakSwapOutInRoundTrip(t *testing.T) {
	// Simulates the guest kernel paging a cloaked page out and back in to a
	// different frame, the case the identity/metadata design exists for.
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	secret := []byte("swap survives cloaking")
	if err := r.appWrite(20, secret); err != nil {
		t.Fatal(err)
	}
	// Kernel pages out: read frame via direct map (forces encryption)...
	cipher := make([]byte, mach.PageSize)
	r.v.PhysRead(7, 0, cipher)
	// ...unmaps the guest PTE, notifies, recycles the frame...
	r.as.guestPT.Unmap(20)
	r.v.InvalidateGuestMapping(r.as, 20)
	r.v.NotifyFrameRecycled(7)
	r.v.PhysZero(7)
	// ...later pages it back into a different frame.
	r.v.PhysWrite(9, 0, cipher)
	r.mapGuest(r.as, 20, 9)
	got, err := r.appRead(20, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("swap round trip lost data: %q", got)
	}
}

func TestCloakSwapSubstitutionDetected(t *testing.T) {
	// Kernel swaps two cloaked pages' ciphertexts: both app accesses fail.
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	r.mapGuest(r.as, 21, 8)
	if err := r.appWrite(20, []byte("page A")); err != nil {
		t.Fatal(err)
	}
	if err := r.appWrite(21, []byte("page B")); err != nil {
		t.Fatal(err)
	}
	ca := make([]byte, mach.PageSize)
	cb := make([]byte, mach.PageSize)
	r.v.PhysRead(7, 0, ca)
	r.v.PhysRead(8, 0, cb)
	// Swap contents.
	r.v.PhysWrite(7, 0, cb)
	r.v.PhysWrite(8, 0, ca)
	if _, err := r.appRead(20, 6); err == nil {
		t.Fatal("substituted page A verified")
	}
	if _, err := r.appRead(21, 6); err == nil {
		t.Fatal("substituted page B verified")
	}
}

func TestCloakReplayDetected(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("version one")); err != nil {
		t.Fatal(err)
	}
	stale := make([]byte, mach.PageSize)
	r.v.PhysRead(7, 0, stale) // encrypt v1, kernel keeps a copy
	// App updates the page (decrypt, write), kernel touches again (v2).
	if err := r.appWrite(20, []byte("version two")); err != nil {
		t.Fatal(err)
	}
	cur := make([]byte, mach.PageSize)
	r.v.PhysRead(7, 0, cur)
	// Kernel replays the stale ciphertext.
	r.v.PhysWrite(7, 0, stale)
	_, err := r.appRead(20, 11)
	var sv *SecViolation
	if !errors.As(err, &sv) {
		t.Fatalf("replay not detected: %v", err)
	}
}

func TestCloakDroppedDirtyPageDetected(t *testing.T) {
	// Kernel discards a dirty cloaked page (recycles the frame without
	// writing it out) and hands the app a fresh zero page. Must be caught:
	// metadata exists but contents do not verify.
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("dirty data")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sysRead(20, 4); err != nil { // force encryption -> metadata exists
		t.Fatal(err)
	}
	r.as.guestPT.Unmap(20)
	r.v.InvalidateGuestMapping(r.as, 20)
	r.v.NotifyFrameRecycled(7)
	r.v.PhysZero(7)
	r.mapGuest(r.as, 20, 7) // map the zeroed frame back without restoring
	if _, err := r.appRead(20, 4); err == nil {
		t.Fatal("dropped dirty page went undetected")
	}
}

func TestForeignProcessSeesCiphertext(t *testing.T) {
	// The OS maps a cloaked plaintext frame into another process. That
	// process's app view must trigger encryption and see only ciphertext.
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	secret := []byte("not for process two")
	if err := r.appWrite(20, secret); err != nil {
		t.Fatal(err)
	}
	spy := r.v.CreateAddressSpace(mmu.NewPageTable())
	r.mapGuest(spy, 40, 7) // same physical page, attacker VA
	got := make([]byte, len(secret))
	if err := r.v.ReadVirt(spy, ViewApp, mach.Addr(40*mach.PageSize), got, true); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, secret) {
		t.Fatal("foreign process read cloaked plaintext")
	}
	// Owner still recovers its data.
	back, err := r.appRead(20, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, secret) {
		t.Fatal("owner lost data after foreign mapping")
	}
}

func TestIdentityMismatchOnRemap(t *testing.T) {
	// OS remaps a plaintext cloaked frame at a different cloaked VA of the
	// same process (aliasing attack): denied with identity mismatch.
	r := newRig(t, Options{})
	r.cloakSetup(20, 8)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("page zero")); err != nil {
		t.Fatal(err)
	}
	r.mapGuest(r.as, 25, 7) // alias the same frame at index 5
	_, err := r.appRead(25, 4)
	var sv *SecViolation
	if !errors.As(err, &sv) || sv.Event.Kind != EventIdentityMismatch {
		t.Fatalf("err = %v, want identity mismatch", err)
	}
}

func TestUncloakedRegionInCloakedProcess(t *testing.T) {
	// The shim's scratch region: same domain, explicitly uncloaked. Kernel
	// and app must both see plaintext there.
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	if err := r.conn.RegisterRegion(Region{BaseVPN: 30, Pages: 2}); err != nil {
		t.Fatal(err)
	}
	r.mapGuest(r.as, 30, 9)
	msg := []byte("marshalling buffer")
	if err := r.appWrite(30, msg); err != nil {
		t.Fatal(err)
	}
	got, err := r.sysRead(30, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("kernel could not read the uncloaked scratch region")
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	if _, err := r.v.HCCreateDomain(r.as); !errors.Is(err, ErrDomainBound) {
		t.Fatalf("double domain creation: err = %v, want ErrDomainBound", err)
	}
	res, _ := r.conn.AllocResource()
	err := r.conn.RegisterRegion(Region{BaseVPN: 22, Pages: 4, Resource: res, Cloaked: true})
	if !errors.Is(err, ErrRegionOverlap) {
		t.Fatalf("overlap: err = %v, want ErrRegionOverlap", err)
	}
	var re *RegionError
	if !errors.As(err, &re) || re.Conflict == nil || re.Conflict.BaseVPN != 20 {
		t.Fatalf("overlap error missing conflict detail: %v", err)
	}
}

func TestHCDestroyDomainZeroesPlaintext(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("residual secret")); err != nil {
		t.Fatal(err)
	}
	r.conn.Destroy()
	frame := r.v.frame(7)
	for _, b := range frame[:32] {
		if b != 0 {
			t.Fatal("plaintext survived domain teardown")
		}
	}
	if len(r.v.domainPages(r.conn.Domain(), nil)) != 0 {
		t.Fatal("registrations survived domain teardown")
	}
}

// TestHCDestroyScrubsFrameTakenFromAnotherDomain: a kernel that never
// recycles domain A's encrypted frame copies domain B's ciphertext into it
// and maps it for B, which decrypts it there. The frame now holds B's
// plaintext, so B's teardown must zero it even though A registered it first.
func TestHCDestroyScrubsFrameTakenFromAnotherDomain(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("domain A data")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sysRead(20, 1); err != nil { // frame 7: A's ciphertext
		t.Fatal(err)
	}

	bas := r.v.CreateAddressSpace(mmu.NewPageTable())
	b, err := r.v.HCCreateDomain(bas)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.AllocResource()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterRegion(Region{BaseVPN: 40, Pages: 1, Resource: res, Cloaked: true}); err != nil {
		t.Fatal(err)
	}
	secret := []byte("domain B secret")
	r.mapGuest(bas, 40, 8)
	if err := r.v.WriteVirt(bas, ViewApp, mach.Addr(40*mach.PageSize), secret, true); err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, mach.PageSize)
	if err := r.v.PhysRead(8, 0, ct); err != nil { // frame 8: B's ciphertext
		t.Fatal(err)
	}
	if err := r.v.PhysWrite(7, 0, ct); err != nil {
		t.Fatal(err)
	}
	r.mapGuest(bas, 40, 7)
	r.v.InvalidateGuestMapping(bas, 40)
	got := make([]byte, len(secret))
	if err := r.v.ReadVirt(bas, ViewApp, mach.Addr(40*mach.PageSize), got, true); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("B read %q, %v from its own ciphertext in A's frame", got, err)
	}

	b.Destroy()
	if bytes.Contains(r.v.frame(7), secret) {
		t.Fatal("B's plaintext survived B's teardown in a frame A registered first")
	}
	if pages, _, _ := r.v.QuarantineResidue(b.Domain()); pages != 0 {
		t.Fatalf("B holds %d registered pages after teardown", pages)
	}
}

func TestHCCloneDomainForkFlow(t *testing.T) {
	r := newRig(t, Options{})
	res := r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	secret := []byte("inherited by child")
	if err := r.appWrite(20, secret); err != nil {
		t.Fatal(err)
	}
	// Guest kernel forks: copies the page eagerly through its direct map.
	buf := make([]byte, mach.PageSize)
	r.v.PhysRead(7, 0, buf) // forces encryption of the parent page
	r.v.PhysWrite(12, 0, buf)
	childPT := mmu.NewPageTable()
	child := r.v.CreateAddressSpace(childPT)
	child.guestPT.Map(20, mmu.PTE{PN: 12, Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})
	rmap, childConn, err := r.conn.CloneInto(child)
	if err != nil {
		t.Fatal(err)
	}
	if childConn.Domain() != r.conn.Domain() || childConn.AddressSpace() != child {
		t.Fatal("child conn not bound to the cloned space")
	}
	if rmap[res] == 0 || rmap[res] == res {
		t.Fatalf("resource map %v not fresh", rmap)
	}
	// Child reads its copy.
	got := make([]byte, len(secret))
	if err := r.v.ReadVirt(child, ViewApp, mach.Addr(20*mach.PageSize), got, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("child read %q, want %q", got, secret)
	}
	// Parent still reads its own.
	back, err := r.appRead(20, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, secret) {
		t.Fatal("parent lost data across fork")
	}
	// Divergence: parent writes; child's copy must be unaffected.
	if err := r.appWrite(20, []byte("parent mutates....")); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(secret))
	if err := r.v.ReadVirt(child, ViewApp, mach.Addr(20*mach.PageSize), got2, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, secret) {
		t.Fatal("parent write leaked into child")
	}
}

func TestCTCUncloakedPassThrough(t *testing.T) {
	r := newRig(t, Options{})
	th := r.v.CreateThread(0)
	th.Regs.GPR[0] = 42
	th.Regs.PC = 0x1000
	regs := th.EnterKernel(TrapSyscall)
	if regs.PC != 0x1000 || regs.GPR[0] != 42 {
		t.Fatal("uncloaked trap scrubbed registers")
	}
	regs.GPR[0] = 7
	if err := th.ExitKernel(); err != nil {
		t.Fatal(err)
	}
	if th.Regs.GPR[0] != 7 {
		t.Fatal("return value lost")
	}
}

func TestCTCSyscallScrubAndRestore(t *testing.T) {
	r := newRig(t, Options{})
	c, _ := r.v.HCCreateDomain(r.as)
	th := r.v.CreateThread(c.Domain())
	th.Regs = Regs{PC: 0xCAFE, SP: 0xBEEF, GPR: [6]uint64{1, 2, 3, 4, 5, 0}}
	th.Regs.GPR[5] = 0x5EC4E7 // private value the kernel must never see
	kview := th.EnterKernel(TrapSyscall)
	if kview.PC != 0 || kview.SP != 0 {
		t.Fatal("PC/SP not scrubbed on cloaked syscall")
	}
	if kview.GPR[0] != 1 || kview.GPR[1] != 2 {
		t.Fatal("syscall args not exposed")
	}
	kview.GPR[0] = 99 // kernel returns a value
	if err := th.ExitKernel(); err != nil {
		t.Fatal(err)
	}
	if th.Regs.PC != 0xCAFE || th.Regs.SP != 0xBEEF {
		t.Fatal("PC/SP not restored from CTC")
	}
	if th.Regs.GPR[0] != 99 {
		t.Fatal("return value not folded in")
	}
	if th.Regs.GPR[5] != 0x5EC4E7 {
		t.Fatal("private register not restored")
	}
}

func TestCTCInterruptScrubsEverything(t *testing.T) {
	r := newRig(t, Options{})
	c, _ := r.v.HCCreateDomain(r.as)
	th := r.v.CreateThread(c.Domain())
	th.Regs = Regs{PC: 0x1, SP: 0x2, GPR: [6]uint64{9, 8, 7, 6, 5, 4}}
	kview := th.EnterKernel(TrapInterrupt)
	if *kview != (Regs{}) {
		t.Fatalf("interrupt exposed registers: %+v", *kview)
	}
	if err := th.ExitKernel(); err != nil {
		t.Fatal(err)
	}
	if th.Regs.GPR[3] != 6 || th.Regs.PC != 0x1 {
		t.Fatal("context not restored after interrupt")
	}
}

func TestCTCTamperDetected(t *testing.T) {
	r := newRig(t, Options{})
	c, _ := r.v.HCCreateDomain(r.as)
	th := r.v.CreateThread(c.Domain())
	th.Regs = Regs{PC: 0x100, GPR: [6]uint64{1, 2, 3, 0, 0, 0}}
	kview := th.EnterKernel(TrapSyscall)
	kview.GPR[2] = 0xBAD // kernel corrupts an argument register
	err := th.ExitKernel()
	var sv *SecViolation
	if !errors.As(err, &sv) || sv.Event.Kind != EventCTCTamper {
		t.Fatalf("err = %v, want CTC tamper", err)
	}
	// The app still resumes with its genuine state.
	if th.Regs.GPR[2] != 3 || th.Regs.PC != 0x100 {
		t.Fatal("tampered value leaked into restored context")
	}
}

func TestCTCExitWithoutEnter(t *testing.T) {
	r := newRig(t, Options{})
	th := r.v.CreateThread(0)
	if err := th.ExitKernel(); err == nil {
		t.Fatal("ExitKernel without EnterKernel succeeded")
	}
}

func TestAblationNoMultiShadowEncryptsOnSwitch(t *testing.T) {
	r := newRig(t, Options{NoMultiShadow: true})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("x")); err != nil {
		t.Fatal(err)
	}
	enc := r.w.Stats.Get(sim.CtrPageEncrypt)
	r.v.SwitchContext(r.as, ViewSystem)
	if r.w.Stats.Get(sim.CtrPageEncrypt) != enc+1 {
		t.Fatal("no-multishadow switch did not eagerly encrypt")
	}
}

func TestAblationFlushTLBOnSwitch(t *testing.T) {
	r := newRig(t, Options{FlushTLBOnSwitch: true})
	r.mapGuest(r.as, 5, 3)
	if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
		t.Fatal(err)
	}
	flushes := r.w.Stats.Get(sim.CtrTLBFlush)
	r.v.SwitchContext(r.as, ViewSystem)
	r.v.SwitchContext(r.as, ViewApp)
	if r.w.Stats.Get(sim.CtrTLBFlush) < flushes+2 {
		t.Fatal("switches did not flush the TLB")
	}
}

func TestEncryptAllPlaintext(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	for i := uint64(0); i < 3; i++ {
		r.mapGuest(r.as, 20+i, mach.GPPN(7+i))
		if err := r.appWrite(20+i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := r.v.EncryptAllPlaintext(r.as.Domain())
	if n != 3 {
		t.Fatalf("encrypted %d pages, want 3", n)
	}
	// RecoverPage verifies each ciphertext where it lies and decrypts into
	// a buffer of its own: the frame it is handed stays byte-identical,
	// whether it verifies or not.
	rps := r.v.ResidentCiphertexts(r.as.Domain())
	if len(rps) != 3 {
		t.Fatalf("%d resident ciphertexts, want 3", len(rps))
	}
	for i, rp := range rps {
		ct := bytes.Clone(rp.Data)
		pt, err := r.v.RecoverPage(rp.ID, rp.Meta, rp.Data)
		if err != nil || pt[0] != byte(i) {
			t.Fatalf("page %v: recovered %v, err %v; want plaintext byte %d", rp.ID, pt[:min(len(pt), 1)], err, i)
		}
		if !bytes.Equal(rp.Data, ct) {
			t.Fatalf("page %v: RecoverPage wrote its ciphertext argument", rp.ID)
		}
		ct[1] ^= 0xff
		bad := bytes.Clone(ct)
		var ierr *cloak.ErrIntegrity
		if _, err := r.v.RecoverPage(rp.ID, rp.Meta, bad); !errors.As(err, &ierr) || !bytes.Equal(bad, ct) {
			t.Fatalf("page %v: tampered recovery err %v, argument unchanged %v", rp.ID, err, bytes.Equal(bad, ct))
		}
	}
}

func TestMetadataBytesGrowWithCloakedSet(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 8)
	if r.v.MetadataBytes() != 0 {
		t.Fatal("metadata before any encryption")
	}
	for i := uint64(0); i < 4; i++ {
		r.mapGuest(r.as, 20+i, mach.GPPN(7+i))
		if err := r.appWrite(20+i, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.sysRead(20+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.v.MetadataBytes(); got != 4*cloak.BytesPerRecord {
		t.Fatalf("MetadataBytes = %d, want %d", got, 4*cloak.BytesPerRecord)
	}
}

func TestDestroyAddressSpace(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("z")); err != nil {
		t.Fatal(err)
	}
	r.v.DestroyAddressSpace(r.as)
	if r.v.DomainSpaceCount(1) != 0 {
		t.Fatal("space still listed under domain")
	}
}

func TestHCAttestVersions(t *testing.T) {
	r := newRig(t, Options{})
	res := r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.conn.Attest(res, 0); ok {
		t.Fatal("attestation exists before first encryption")
	}
	if _, err := r.sysRead(20, 1); err != nil {
		t.Fatal(err)
	}
	m, ok := r.conn.Attest(res, 0)
	if !ok || m.Version != 1 {
		t.Fatalf("attest = %+v,%v; want version 1", m, ok)
	}
}
