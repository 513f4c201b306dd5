package vmm

import (
	"bytes"
	"fmt"
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
)

// frameInUse reports whether machine-backed guest page g currently backs
// any mapped VPN of the rig's address space.
func frameInUse(r *testRig, g mach.GPPN) bool {
	inUse := false
	r.as.guestPT.Range(func(_ uint64, pte mmu.PTE) bool {
		if mach.GPPN(pte.PN) == g {
			inUse = true
			return false
		}
		return true
	})
	return inUse
}

// findFreeFrame returns an unused frame in [7, 7+pages), or false.
func findFreeFrame(r *testRig, pages int) (mach.GPPN, bool) {
	for i := 0; i < pages; i++ {
		g := mach.GPPN(7 + i)
		if r.v.registered(g) == nil && !frameInUse(r, g) {
			return g, true
		}
	}
	return 0, false
}

// TestCloakAccessSequenceProperty drives a random interleaving of
// application reads/writes and kernel (system-view) reads/writes-to-swap
// against a set of cloaked pages, checking two invariants at every step:
//
//  1. The application always reads back exactly what it last wrote
//     (integrity + transparency).
//  2. The kernel never observes the current plaintext (privacy).
//
// This is the paper's core guarantee expressed as a property test over the
// state machine.
func TestCloakAccessSequenceProperty(t *testing.T) {
	const pages = 6
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newRig(t, Options{})
			r.cloakSetup(20, pages)
			for i := uint64(0); i < pages; i++ {
				r.mapGuest(r.as, 20+i, mach.GPPN(7+i))
			}
			rng := sim.NewRNG(seed)
			// expected[i] = what the app last wrote to page i (nil: never).
			expected := make([][]byte, pages)
			// swapStore simulates the kernel's swap: identity -> ciphertext.
			swapStore := make(map[int][]byte)

			// pageIn plays the benign kernel's demand-paging role: restore
			// the page from "swap" into a free frame and map it.
			pageIn := func(pg int) bool {
				vpn := uint64(20 + pg)
				if r.as.guestPT.Lookup(vpn).Present() {
					return true
				}
				g, ok := findFreeFrame(r, pages)
				if !ok {
					return false
				}
				if img, swapped := swapStore[pg]; swapped {
					r.v.PhysWrite(g, 0, img)
					delete(swapStore, pg)
				} else {
					r.v.PhysZero(g)
				}
				r.mapGuest(r.as, vpn, g)
				return true
			}

			for step := 0; step < 400; step++ {
				pg := rng.Intn(pages)
				vpn := uint64(20 + pg)
				switch rng.Intn(5) {
				case 0: // app write
					if !pageIn(pg) {
						continue
					}
					data := make([]byte, 64)
					rng.Bytes(data)
					if err := r.appWrite(vpn, data); err != nil {
						t.Fatalf("step %d app write: %v", step, err)
					}
					expected[pg] = data
				case 1: // app read + verify
					if expected[pg] == nil || !pageIn(pg) {
						continue
					}
					got, err := r.appRead(vpn, 64)
					if err != nil {
						t.Fatalf("step %d app read: %v", step, err)
					}
					if !bytes.Equal(got, expected[pg]) {
						t.Fatalf("step %d page %d integrity lost", step, pg)
					}
				case 2: // kernel snoop: must not see plaintext
					if expected[pg] == nil || !r.as.guestPT.Lookup(vpn).Present() {
						continue
					}
					got, err := r.sysRead(vpn, 64)
					if err != nil {
						t.Fatalf("step %d sys read: %v", step, err)
					}
					if bytes.Equal(got, expected[pg]) {
						t.Fatalf("step %d page %d plaintext leaked to kernel", step, pg)
					}
				case 3: // kernel pages it out and recycles the frame
					gpte := r.as.guestPT.Lookup(vpn)
					if !gpte.Present() {
						continue
					}
					g := mach.GPPN(gpte.PN)
					img := make([]byte, mach.PageSize)
					r.v.PhysRead(g, 0, img) // forces encryption
					swapStore[pg] = img
					r.as.guestPT.Unmap(vpn)
					r.v.InvalidateGuestMapping(r.as, vpn)
					r.v.NotifyFrameRecycled(g)
					r.v.PhysZero(g)
				case 4: // kernel pages it back in (to a rotated frame)
					img, ok := swapStore[pg]
					if !ok {
						continue
					}
					if r.as.guestPT.Lookup(vpn).Present() {
						continue
					}
					g, ok := findFreeFrame(r, pages)
					if !ok {
						continue
					}
					r.v.PhysWrite(g, 0, img)
					r.mapGuest(r.as, vpn, g)
					delete(swapStore, pg)
				}
			}
			// Final sweep: every page the app wrote must still read back,
			// after restoring any swapped-out pages.
			for pg := 0; pg < pages; pg++ {
				if expected[pg] == nil {
					continue
				}
				vpn := uint64(20 + pg)
				if !r.as.guestPT.Lookup(vpn).Present() {
					img := swapStore[pg]
					if img == nil {
						t.Fatalf("page %d lost entirely", pg)
					}
					g, ok := findFreeFrame(r, pages)
					if !ok {
						t.Fatal("no free frame for final restore")
					}
					r.v.PhysWrite(g, 0, img)
					r.mapGuest(r.as, vpn, g)
				}
				got, err := r.appRead(vpn, 64)
				if err != nil {
					t.Fatalf("final read page %d: %v", pg, err)
				}
				if !bytes.Equal(got, expected[pg]) {
					t.Fatalf("final integrity check failed on page %d", pg)
				}
			}
		})
	}
}
