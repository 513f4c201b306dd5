package vmm

import (
	"errors"
	"strings"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/mach"
)

func TestStringers(t *testing.T) {
	if ViewApp.String() != "app" || ViewSystem.String() != "system" {
		t.Error("view strings")
	}
	for _, k := range []TrapKind{TrapSyscall, TrapInterrupt, TrapFault, TrapKind(9)} {
		if k.String() == "" {
			t.Errorf("empty trap kind %d", k)
		}
	}
	kinds := []EventKind{EventIntegrityViolation, EventIdentityMismatch,
		EventCTCTamper, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty event kind %d", k)
		}
	}
	ev := Event{Kind: EventIntegrityViolation, Domain: 1,
		Page: cloak.PageID{Domain: 1, Resource: 2, Index: 3}, GPPN: 4, Detail: "x"}
	if !strings.Contains(ev.String(), "integrity-violation") {
		t.Errorf("event string %q", ev.String())
	}
	sv := &SecViolation{Event: ev}
	if !strings.Contains(sv.Error(), "security violation") {
		t.Errorf("violation error %q", sv.Error())
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t, Options{})
	if r.v.World() != r.w {
		t.Error("World accessor")
	}
	if r.as.ID() == 0 {
		t.Error("zero ASID")
	}
	if r.as.GuestPT() == nil {
		t.Error("nil guest PT")
	}
	th := r.v.CreateThread(0)
	if th.InTrap() {
		t.Error("fresh thread in trap")
	}
	th.EnterKernel(TrapSyscall)
	if !th.InTrap() {
		t.Error("InTrap false inside trap")
	}
	th.ExitKernel()
	r.v.DestroyThread(th)
}

func TestFileVaultLifecycle(t *testing.T) {
	r := newRig(t, Options{})
	d1, res1 := r.v.HCFileResource(42)
	d2, res2 := r.v.HCFileResource(42)
	if d1 != d2 || res1 != res2 {
		t.Error("vault binding not stable")
	}
	d3, _ := r.v.HCFileResource(43)
	if d3 == d1 {
		t.Error("distinct files share a vault domain")
	}
	r.v.HCDropFileResource(42)
	d4, _ := r.v.HCFileResource(42)
	if d4 == d1 {
		t.Error("dropped vault identity reused")
	}
	r.v.HCDropFileResource(999) // unknown uid: no-op
}

func TestUnregisterRegionDropsShadows(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.conn.UnregisterRegion(20); err != nil {
		t.Fatal(err)
	}
	// The range is uncloaked now: an app access sees the raw frame (which
	// still holds plaintext here — region teardown does not scrub; the
	// resource release / domain teardown does).
	if r.as.regionAt(20) != nil {
		t.Fatal("region still present")
	}
}

func TestPhysAccessBounds(t *testing.T) {
	r := newRig(t, Options{})
	buf := make([]byte, 100)
	var rf *ResourceFault
	if err := r.v.PhysRead(1, mach.PageSize-10, buf); !errors.As(err, &rf) {
		t.Fatalf("cross-page phys access: err = %v, want *ResourceFault", err)
	}
	if err := r.v.PhysWrite(mach.GPPN(1<<30), 0, buf); !errors.As(err, &rf) {
		t.Fatalf("out-of-range phys access: err = %v, want *ResourceFault", err)
	}
}

func TestRegionContains(t *testing.T) {
	reg := Region{BaseVPN: 10, Pages: 5}
	for vpn, want := range map[uint64]bool{9: false, 10: true, 14: true, 15: false} {
		if reg.Contains(vpn) != want {
			t.Errorf("Contains(%d) = %v", vpn, !want)
		}
	}
}
