package vmm

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
)

// TestStaleConnFailsEveryHypercall drives every DomainConn operation against
// a handle whose domain was destroyed: each must fail with ErrNoDomain (or
// report ok=false for Attest), never touch VMM state.
func TestStaleConnFailsEveryHypercall(t *testing.T) {
	cases := []struct {
		name string
		call func(c *DomainConn, v *VMM) error
	}{
		{"AllocResource", func(c *DomainConn, v *VMM) error {
			_, err := c.AllocResource()
			return err
		}},
		{"RegisterRegion", func(c *DomainConn, v *VMM) error {
			return c.RegisterRegion(Region{BaseVPN: 40, Pages: 1, Resource: 1, Cloaked: true})
		}},
		{"UnregisterRegion", func(c *DomainConn, v *VMM) error {
			return c.UnregisterRegion(20)
		}},
		{"ReleaseResource", func(c *DomainConn, v *VMM) error {
			return c.ReleaseResource(1, 1)
		}},
		{"RecordIdentity", func(c *DomainConn, v *VMM) error {
			return c.RecordIdentity([32]byte{1})
		}},
		{"CloneInto", func(c *DomainConn, v *VMM) error {
			_, _, err := c.CloneInto(v.CreateAddressSpace(mmu.NewPageTable()))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Options{})
			r.cloakSetup(20, 4)
			r.conn.Destroy()
			if err := tc.call(r.conn, r.v); !errors.Is(err, ErrNoDomain) {
				t.Fatalf("stale %s: err = %v, want ErrNoDomain", tc.name, err)
			}
		})
	}
	t.Run("Attest", func(t *testing.T) {
		r := newRig(t, Options{})
		res := r.cloakSetup(20, 4)
		r.conn.Destroy()
		if _, ok := r.conn.Attest(res, 0); ok {
			t.Fatal("stale Attest returned ok")
		}
	})
	t.Run("Destroy", func(t *testing.T) {
		r := newRig(t, Options{})
		r.cloakSetup(20, 4)
		r.conn.Destroy()
		r.conn.Destroy() // second destroy on a stale handle: silent no-op
	})
}

// TestConnOfWithoutDomain pins the only entry point to the typed surface:
// an unbound space yields no handle, just typed ErrNoDomain.
func TestConnOfWithoutDomain(t *testing.T) {
	r := newRig(t, Options{})
	if _, err := r.v.ConnOf(r.as); !errors.Is(err, ErrNoDomain) {
		t.Fatal("ConnOf on unbound space did not return ErrNoDomain")
	}
	// Destroying the domain invalidates future ConnOf calls too.
	r2 := newRig(t, Options{})
	r2.cloakSetup(20, 4)
	r2.conn.Destroy()
	if _, err := r2.v.ConnOf(r2.as); !errors.Is(err, ErrNoDomain) {
		t.Fatal("ConnOf after destroy did not return ErrNoDomain")
	}
}

// TestTypedHypercallErrors walks the remaining failure modes of the typed
// surface, matching each with errors.Is / errors.As rather than strings.
func TestTypedHypercallErrors(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *testRig) error
		want error
	}{
		{
			name: "double domain bind",
			run: func(t *testing.T, r *testRig) error {
				_, err := r.v.HCCreateDomain(r.as)
				return err
			},
			want: ErrDomainBound,
		},
		{
			name: "cloaked region without resource",
			run: func(t *testing.T, r *testRig) error {
				return r.conn.RegisterRegion(Region{BaseVPN: 60, Pages: 1, Cloaked: true})
			},
			want: ErrNoResource,
		},
		{
			name: "overlapping region",
			run: func(t *testing.T, r *testRig) error {
				res, _ := r.conn.AllocResource()
				return r.conn.RegisterRegion(Region{BaseVPN: 18, Pages: 4, Resource: res, Cloaked: true})
			},
			want: ErrRegionOverlap,
		},
		{
			name: "unregister unknown region",
			run: func(t *testing.T, r *testRig) error {
				return r.conn.UnregisterRegion(0x5555)
			},
			want: ErrNoRegion,
		},
		{
			name: "double identity measurement",
			run: func(t *testing.T, r *testRig) error {
				if err := r.conn.RecordIdentity([32]byte{1}); err != nil {
					t.Fatalf("first identity: %v", err)
				}
				return r.conn.RecordIdentity([32]byte{2})
			},
			want: ErrAlreadyMeasured,
		},
		{
			name: "clone into bound child",
			run: func(t *testing.T, r *testRig) error {
				other := r.v.CreateAddressSpace(r.as.GuestPT())
				if _, _, err := r.conn.CloneInto(other); err != nil {
					t.Fatalf("first clone: %v", err)
				}
				_, _, err := r.conn.CloneInto(other)
				return err
			},
			want: ErrDomainBound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Options{})
			r.cloakSetup(20, 4)
			err := tc.run(t, r)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRegionErrorDetail checks the structured overlap diagnostics: the
// conflicting registration is carried on the error, and the message names
// both ranges.
func TestRegionErrorDetail(t *testing.T) {
	r := newRig(t, Options{})
	res := r.cloakSetup(20, 4)
	err := r.conn.RegisterRegion(Region{BaseVPN: 22, Pages: 4, Resource: res, Cloaked: true})
	var re *RegionError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RegionError", err)
	}
	if re.Op != "register" || re.Region.BaseVPN != 22 {
		t.Fatalf("wrong op/region: %+v", re)
	}
	if re.Conflict == nil || re.Conflict.BaseVPN != 20 || re.Conflict.Pages != 4 {
		t.Fatalf("wrong conflict: %+v", re.Conflict)
	}
	if msg := re.Error(); !strings.Contains(msg, "0x16") || !strings.Contains(msg, "0x14") {
		t.Fatalf("message does not name both ranges: %q", msg)
	}

	// Non-overlap RegionError (unregister miss) has no conflict.
	err = r.conn.UnregisterRegion(0x5555)
	if !errors.As(err, &re) || re.Conflict != nil || re.Op != "unregister" {
		t.Fatalf("unregister miss error: %v", err)
	}
}

// TestRegionIndexInvariants exercises the sorted-by-VPN region index: inserts
// out of order, checks neighbor-only overlap detection at both edges, and
// unregister-by-base lookup.
func TestRegionIndexInvariants(t *testing.T) {
	r := newRig(t, Options{})
	r.cloakSetup(40, 4) // [40,44)
	reg := func(base, pages uint64) error {
		res, err := r.conn.AllocResource()
		if err != nil {
			t.Fatal(err)
		}
		return r.conn.RegisterRegion(Region{BaseVPN: base, Pages: pages, Resource: res, Cloaked: true})
	}
	if err := reg(10, 4); err != nil { // insert before
		t.Fatal(err)
	}
	if err := reg(20, 4); err != nil { // insert between
		t.Fatal(err)
	}
	// Predecessor overlap: new region starts inside [20,24).
	if err := reg(23, 4); !errors.Is(err, ErrRegionOverlap) {
		t.Fatalf("predecessor overlap: %v", err)
	}
	// Successor overlap: new region runs into [40,44).
	if err := reg(38, 3); !errors.Is(err, ErrRegionOverlap) {
		t.Fatalf("successor overlap: %v", err)
	}
	// Exact fill of a gap is fine.
	if err := reg(24, 16); err != nil {
		t.Fatal(err)
	}
	// Sorted invariant holds after out-of-order inserts.
	for i := 1; i < len(r.as.regions); i++ {
		if r.as.regions[i-1].BaseVPN >= r.as.regions[i].BaseVPN {
			t.Fatalf("regions not sorted: %+v", r.as.regions)
		}
	}
	// findRegion hits only exact bases.
	if _, ok := r.as.findRegion(24); !ok {
		t.Fatal("findRegion missed an exact base")
	}
	if _, ok := r.as.findRegion(25); ok {
		t.Fatal("findRegion matched a non-base VPN")
	}
	if err := r.conn.UnregisterRegion(24); err != nil {
		t.Fatal(err)
	}
	if r.as.regionAt(30) != nil {
		t.Fatal("unregistered range still resolves")
	}
	if r.as.regionAt(41) == nil || r.as.regionAt(21) == nil {
		t.Fatal("neighbors lost by unregister")
	}
}

// TestRegisterRegionRange: a region the page table cannot hold — empty,
// starting past mmu.MaxVPN, or running past it (wrapping uint64 included) —
// is refused with ErrRegionRange inside a *RegionError, and the region list
// is left as it was. A region ending exactly at MaxVPN still registers.
func TestRegisterRegionRange(t *testing.T) {
	r := newRig(t, Options{})
	res := r.cloakSetup(20, 4) // [20,24)
	refused := []struct {
		name string
		reg  Region
	}{
		{"empty", Region{BaseVPN: 40, Pages: 0}},
		{"empty cloaked", Region{BaseVPN: 40, Pages: 0, Resource: res, Cloaked: true}},
		{"starts past MaxVPN", Region{BaseVPN: mmu.MaxVPN + 1, Pages: 1}},
		{"starts far past MaxVPN", Region{BaseVPN: 1 << 40, Pages: 1 << 40}},
		{"runs past MaxVPN", Region{BaseVPN: mmu.MaxVPN, Pages: 2}},
		{"2^28 pages", Region{BaseVPN: 0x100, Pages: 1 << 28}},
		// BaseVPN+Pages wraps to 19, which would pass the overlap check
		// against [20,24).
		{"wraps", Region{BaseVPN: 30, Pages: ^uint64(0) - 10}},
	}
	for _, tc := range refused {
		before := append([]Region(nil), r.as.regions...)
		err := r.conn.RegisterRegion(tc.reg)
		if !errors.Is(err, ErrRegionRange) {
			t.Fatalf("%s: err = %v, want ErrRegionRange", tc.name, err)
		}
		var re *RegionError
		if !errors.As(err, &re) || re.Op != "register" || re.Region != tc.reg {
			t.Fatalf("%s: err = %#v, want a *RegionError naming the region", tc.name, err)
		}
		if !reflect.DeepEqual(r.as.regions, before) {
			t.Fatalf("%s: region list changed to %+v", tc.name, r.as.regions)
		}
	}
	top := Region{BaseVPN: mmu.MaxVPN - 3, Pages: 4}
	if err := r.conn.RegisterRegion(top); err != nil {
		t.Fatalf("region ending at MaxVPN: %v", err)
	}
	if got := r.as.regionAt(mmu.MaxVPN); got == nil || *got != top {
		t.Fatalf("region ending at MaxVPN not registered: %+v", r.as.regions)
	}
}

// TestDestroyAfterSpaceTeardown destroys a domain through handles whose
// spaces the kernel tore down first: the domain's only space, and a forked
// sibling's. Destroy must unbind every such space, so each handle goes
// stale and neither a second identity measurement nor an app write through
// a dead space leaves the domain a page or a metadata record.
func TestDestroyAfterSpaceTeardown(t *testing.T) {
	t.Run("only space", func(t *testing.T) {
		r := newRig(t, Options{})
		r.cloakSetup(20, 4)
		if err := r.conn.RecordIdentity([32]byte{1}); err != nil {
			t.Fatal(err)
		}
		r.mapGuest(r.as, 20, 5)
		if err := r.appWrite(20, []byte("secret")); err != nil {
			t.Fatal(err)
		}
		d := r.conn.Domain()
		r.v.DestroyAddressSpace(r.as)
		r.conn.Destroy()
		if r.as.Domain() != 0 {
			t.Fatalf("destroyed space still bound to domain %d", r.as.Domain())
		}
		if err := r.conn.RecordIdentity([32]byte{2}); !errors.Is(err, ErrNoDomain) {
			t.Fatalf("RecordIdentity after Destroy: err = %v, want ErrNoDomain", err)
		}
		r.mapGuest(r.as, 21, 6)
		if err := r.appWrite(21, []byte("late")); err != nil {
			t.Fatal(err)
		}
		if pages, metas, ctcs := r.v.QuarantineResidue(d); pages != 0 || metas != 0 || ctcs != 0 {
			t.Fatalf("destroyed domain holds %d pages, %d metadata records, %d live CTCs", pages, metas, ctcs)
		}
	})
	t.Run("forked sibling", func(t *testing.T) {
		r := newRig(t, Options{})
		r.cloakSetup(20, 4)
		child := r.v.CreateAddressSpace(mmu.NewPageTable())
		_, cc, err := r.conn.CloneInto(child)
		if err != nil {
			t.Fatal(err)
		}
		d := r.conn.Domain()
		r.v.DestroyAddressSpace(child) // the child exits first
		r.conn.Destroy()
		if child.Domain() != 0 {
			t.Fatalf("destroyed sibling still bound to domain %d", child.Domain())
		}
		if _, err := cc.AllocResource(); !errors.Is(err, ErrNoDomain) {
			t.Fatalf("sibling AllocResource after Destroy: err = %v, want ErrNoDomain", err)
		}
		r.mapGuest(child, 20, 7)
		if err := r.v.WriteVirt(child, ViewApp, mach.Addr(20*mach.PageSize), []byte("late"), true); err != nil {
			t.Fatal(err)
		}
		if pages, metas, _ := r.v.QuarantineResidue(d); pages != 0 || metas != 0 {
			t.Fatalf("destroyed domain holds %d pages, %d metadata records", pages, metas)
		}
	})
}
