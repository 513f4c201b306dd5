package shim

// White-box tests for the Iago validation layer. Every rejection path in
// validate.go is pinned table-style — wrong errno, missing audit event, or a
// silently accepted lie all fail here — and a native fuzz target throws
// arbitrary malicious kernel returns at the validators to pin the core
// invariant: never a panic, never an unvalidated acceptance, always a typed
// errno from the validator's own vocabulary.

import (
	"errors"
	"strings"
	"testing"

	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// newValidatorCtx builds the minimal shim context the validators touch: a
// live domain handle (so rejections land real audit events), a mapping
// table seeded with one mapping of each kind so alias checks have something
// to collide with, and the cloaked file whose window the table holds.
func newValidatorCtx(t *testing.T) (*Ctx, *vmm.VMM, *sim.World) {
	t.Helper()
	w := sim.NewWorld(sim.DefaultCostModel(), 11)
	hv, err := vmm.New(w, vmm.Config{GuestPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	as := hv.CreateAddressSpace(mmu.NewPageTable())
	conn, err := hv.HCCreateDomain(as)
	if err != nil {
		t.Fatal(err)
	}
	s := &Ctx{process: &process{
		conn: conn,
		maps: mappings{
			{base: guestos.LayoutMmapBase + 100, pages: 4, kind: mapAnon},
			{base: guestos.LayoutMmapBase + 200, pages: 2, kind: mapShm},
			{base: guestos.LayoutMmapBase + 300, pages: 8, kind: mapWindow},
			{base: guestos.LayoutMmapBase + 400, pages: guestos.LayoutScratchLen, kind: mapScratch},
		},
		cfiles: map[int]*cloakedFile{7: {
			fd:       7,
			winBase:  mach.Addr((guestos.LayoutMmapBase + 300) * mach.PageSize),
			winPages: 8,
		}},
	}}
	return s, hv, w
}

func countIagoEvents(hv *vmm.VMM) int {
	n := 0
	for _, ev := range hv.Events() {
		if ev.Kind == vmm.EventIagoRejected {
			n++
		}
	}
	return n
}

func TestValidateRejectionPaths(t *testing.T) {
	page := func(vpn uint64) mach.Addr { return mach.Addr(vpn * mach.PageSize) }
	cases := []struct {
		name   string
		run    func(s *Ctx) error
		errno  guestos.Errno // OK means the value must be accepted
		detail string        // substring of the audit event detail
	}{
		// validateMappedBase: alignment, window bounds, alias checks.
		{"mmap-unaligned", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapBase)+7, 1)
		}, guestos.EFAULT, "unaligned mapping base"},
		{"mmap-zero-pages", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapBase), 0)
		}, guestos.EFAULT, "outside the mmap window"},
		{"mmap-below-window", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutHeapBase), 1)
		}, guestos.EFAULT, "outside the mmap window"},
		{"mmap-into-scratch", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutScratch), 1)
		}, guestos.EFAULT, "outside the mmap window"},
		{"mmap-past-window-end", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapMax-1), 2)
		}, guestos.EFAULT, "outside the mmap window"},
		{"mmap-length-wraps", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapBase), ^uint64(0))
		}, guestos.EFAULT, "outside the mmap window"},
		{"mmap-alias-anon", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapBase+102), 1)
		}, guestos.EFAULT, "aliases a tracked cloaked mapping"},
		{"mmap-alias-shm", func(s *Ctx) error {
			return s.validateMappedBase("shm_attach", page(guestos.LayoutMmapBase+199), 2)
		}, guestos.EFAULT, "aliases a tracked cloaked mapping"},
		{"mmap-alias-file-window", func(s *Ctx) error {
			return s.validateMappedBase("mmap_file", page(guestos.LayoutMmapBase+307), 1)
		}, guestos.EFAULT, "aliases a tracked cloaked mapping"},
		{"mmap-alias-thread-scratch", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapBase+463), 1)
		}, guestos.EFAULT, "aliases a tracked cloaked mapping"},
		{"mmap-honest", func(s *Ctx) error {
			return s.validateMappedBase("alloc", page(guestos.LayoutMmapBase+1000), 4)
		}, guestos.OK, ""},

		// validateHeapBrk: alignment and heap-range bounds.
		{"brk-unaligned", func(s *Ctx) error {
			return s.validateHeapBrk("sbrk", page(guestos.LayoutHeapBase)+1, 1)
		}, guestos.EFAULT, "unaligned break"},
		{"brk-below-heap", func(s *Ctx) error {
			return s.validateHeapBrk("sbrk", page(guestos.LayoutHeapBase-1), 1)
		}, guestos.EFAULT, "outside heap"},
		{"brk-above-heap", func(s *Ctx) error {
			return s.validateHeapBrk("sbrk", page(guestos.LayoutHeapMax+1), 0)
		}, guestos.EFAULT, "outside heap"},
		{"brk-grows-past-end", func(s *Ctx) error {
			return s.validateHeapBrk("sbrk", page(guestos.LayoutHeapMax-1), 2)
		}, guestos.EFAULT, "grows past heap end"},
		{"brk-honest", func(s *Ctx) error {
			return s.validateHeapBrk("sbrk", page(guestos.LayoutHeapBase+5), 3)
		}, guestos.OK, ""},

		// validateXferCount: [0, chunk] only.
		{"xfer-negative", func(s *Ctx) error {
			return s.validateXferCount("read", -1, 4096)
		}, guestos.EIO, "transfer count"},
		{"xfer-over-chunk", func(s *Ctx) error {
			return s.validateXferCount("read", 4097, 4096)
		}, guestos.EIO, "transfer count"},
		{"xfer-zero-honest", func(s *Ctx) error {
			return s.validateXferCount("read", 0, 4096)
		}, guestos.OK, ""},
		{"xfer-full-honest", func(s *Ctx) error {
			return s.validateXferCount("write", 4096, 4096)
		}, guestos.OK, ""},

		// validateNewFD: range sanity and cloaked-descriptor aliasing.
		{"fd-negative", func(s *Ctx) error {
			return s.validateNewFD("open", -3)
		}, guestos.EBADF, "out of range"},
		{"fd-wild", func(s *Ctx) error {
			return s.validateNewFD("open", 1<<20)
		}, guestos.EBADF, "out of range"},
		{"fd-alias-cloaked", func(s *Ctx) error {
			return s.validateNewFD("open", 7)
		}, guestos.EBADF, "aliases a cloaked file"},
		{"fd-honest", func(s *Ctx) error {
			return s.validateNewFD("open", 8)
		}, guestos.OK, ""},

		// validateErrno: forged failure codes normalize to EIO.
		{"errno-forged", func(s *Ctx) error {
			return s.validateErrno("open", guestos.Errno(4000))
		}, guestos.EIO, "forged errno"},
		{"errno-known-passthrough", func(s *Ctx) error {
			return s.validateErrno("open", guestos.ENOENT)
		}, guestos.ENOENT, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, hv, w := newValidatorCtx(t)
			err := tc.run(s)
			rejected := countIagoEvents(hv)
			if tc.errno == guestos.OK {
				if err != nil {
					t.Fatalf("honest value rejected: %v", err)
				}
				if rejected != 0 {
					t.Fatalf("honest value logged %d Iago events", rejected)
				}
				return
			}
			var e guestos.Errno
			if !errors.As(err, &e) || e != tc.errno {
				t.Fatalf("err = %v, want errno %v", err, tc.errno)
			}
			// A known errno passing through validateErrno is not a rejection.
			if tc.detail == "" {
				if rejected != 0 {
					t.Fatalf("passthrough logged %d Iago events", rejected)
				}
				return
			}
			if rejected != 1 {
				t.Fatalf("rejection logged %d Iago events, want 1", rejected)
			}
			evs := hv.Events()
			last := evs[len(evs)-1]
			if !strings.Contains(last.Detail, tc.detail) {
				t.Fatalf("event detail %q missing %q", last.Detail, tc.detail)
			}
			if got := w.Stats.Get(sim.CtrIagoRejected); got != 1 {
				t.Fatalf("CtrIagoRejected = %d, want 1", got)
			}
		})
	}
}

// TestValidateNilErrnoPassthrough pins the two non-errno shapes of
// validateErrno: nil flows through, and a wrapped non-errno error is not the
// validator's business.
func TestValidateNilErrnoPassthrough(t *testing.T) {
	s, hv, _ := newValidatorCtx(t)
	if err := s.validateErrno("read", nil); err != nil {
		t.Fatalf("nil error rejected: %v", err)
	}
	opaque := errors.New("transport glitch")
	if err := s.validateErrno("read", opaque); err != opaque {
		t.Fatalf("opaque error rewritten: %v", err)
	}
	if n := countIagoEvents(hv); n != 0 {
		t.Fatalf("passthroughs logged %d Iago events", n)
	}
}

// FuzzValidate drives every validator with (call, kernel return, request)
// triples: call picks the validator, ret is the value the lying kernel puts
// in the return register, and arg is what the shim itself asked for (pages
// to map, pages to grow the break by, the chunk offered). It asserts the
// layer's contract on each: it never panics, it never accepts a value that
// violates the documented invariant, and every rejection is the validator's
// own typed errno with exactly one audit event and one counted rejection.
// The seed corpus is the pool of adversarial values — exact layout
// boundaries, off-by-ones and wild bits — as each validator's return, and as
// the request of the two that take one.
func FuzzValidate(f *testing.F) {
	interesting := []uint64{
		0, 1, 7,
		guestos.LayoutHeapBase, guestos.LayoutHeapBase - 1,
		guestos.LayoutHeapMax, guestos.LayoutHeapMax + 1,
		guestos.LayoutMmapBase, guestos.LayoutMmapBase - 1,
		guestos.LayoutMmapMax, guestos.LayoutMmapMax + 1,
		guestos.LayoutScratch, guestos.LayoutStackTop,
		^uint64(0), ^uint64(0) >> 1, 1 << 40,
	}
	const (
		callMmap = iota
		callBrk
		callXfer
		callFD
		callErrno
		numCalls
	)
	for _, v := range interesting {
		f.Add(uint8(callMmap), v*mach.PageSize, uint64(4))
		f.Add(uint8(callBrk), v*mach.PageSize, uint64(8))
		f.Add(uint8(callXfer), v, uint64(4096))
		f.Add(uint8(callFD), v, uint64(0))
		f.Add(uint8(callErrno), v, uint64(0))
		f.Add(uint8(callMmap), uint64(guestos.LayoutMmapBase*mach.PageSize), v)
		f.Add(uint8(callBrk), uint64(guestos.LayoutHeapBase*mach.PageSize), v)
	}
	typedFault := func(err error, want guestos.Errno) bool {
		var e guestos.Errno
		return errors.As(err, &e) && e == want
	}
	f.Fuzz(func(t *testing.T, call uint8, ret, arg uint64) {
		s, hv, w := newValidatorCtx(t)
		var err error
		switch call % numCalls {
		case callMmap:
			base, pages := mach.Addr(ret), arg
			err = s.validateMappedBase("fuzz_mmap", base, pages)
			if err == nil {
				vpn := mach.PageOf(base)
				if base%mach.PageSize != 0 || pages == 0 || vpn+pages < vpn ||
					vpn < guestos.LayoutMmapBase || vpn+pages > guestos.LayoutMmapMax {
					t.Fatalf("accepted bad mapping base=%#x pages=%d", uint64(base), pages)
				}
				// The oracle walks every entry itself rather than trusting
				// the table's binary search.
				for _, m := range s.maps {
					if m.base < vpn+pages && vpn < m.base+m.pages {
						t.Fatalf("accepted mapping base=%#x pages=%d aliasing %+v", uint64(base), pages, m)
					}
				}
			} else if !typedFault(err, guestos.EFAULT) {
				t.Fatalf("mapping rejection not EFAULT: %v", err)
			}
		case callBrk:
			old, delta := mach.Addr(ret), int64(arg)
			err = s.validateHeapBrk("fuzz_brk", old, delta)
			if err == nil {
				vpn := mach.PageOf(old)
				grown := vpn
				if delta > 0 {
					grown += uint64(delta)
				}
				if old%mach.PageSize != 0 || grown < vpn ||
					vpn < guestos.LayoutHeapBase || grown > guestos.LayoutHeapMax {
					t.Fatalf("accepted bad break old=%#x delta=%d", uint64(old), delta)
				}
			} else if !typedFault(err, guestos.EFAULT) {
				t.Fatalf("break rejection not EFAULT: %v", err)
			}
		case callXfer:
			got, chunk := int(ret), int(arg%(1<<16))
			err = s.validateXferCount("fuzz_xfer", got, chunk)
			if err == nil {
				if got < 0 || got > chunk {
					t.Fatalf("accepted bad count %d/[0,%d]", got, chunk)
				}
			} else if !typedFault(err, guestos.EIO) {
				t.Fatalf("count rejection not EIO: %v", err)
			}
		case callFD:
			fd := int(ret)
			err = s.validateNewFD("fuzz_fd", fd)
			if err == nil {
				if fd < 0 || fd >= 1<<20 {
					t.Fatalf("accepted wild fd %d", fd)
				}
				if _, tracked := s.cfiles[fd]; tracked {
					t.Fatalf("accepted aliased fd %d", fd)
				}
			} else if !typedFault(err, guestos.EBADF) {
				t.Fatalf("fd rejection not EBADF: %v", err)
			}
		case callErrno:
			forged := guestos.Errno(ret)
			err = s.validateErrno("fuzz_errno", forged)
			if guestos.KnownErrno(forged) {
				if err != forged {
					t.Fatalf("known errno %d rewritten to %v", int(forged), err)
				}
				err = nil // a passed-through errno is no rejection
			} else if !typedFault(err, guestos.EIO) {
				t.Fatalf("forged errno %d not normalized to EIO: %v", int(forged), err)
			}
		}
		// Every rejection, and only a rejection, lands one audit event and
		// one count.
		want := 0
		if err != nil {
			want = 1
		}
		if rej, ev := int(w.Stats.Get(sim.CtrIagoRejected)), countIagoEvents(hv); rej != want || ev != want {
			t.Fatalf("rejected=%v: counter %d, audit log %d, want %d each", err != nil, rej, ev, want)
		}
	})
}
