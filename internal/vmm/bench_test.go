package vmm

import (
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
)

func benchRig(b *testing.B) *testRig {
	b.Helper()
	r := newRig(&testing.T{}, Options{})
	return r
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	r := benchRig(b)
	r.mapGuest(r.as, 5, 3)
	if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateShadowMiss(b *testing.B) {
	r := benchRig(b)
	for vpn := uint64(0); vpn < 32; vpn++ {
		r.mapGuest(r.as, vpn, mach.GPPN(vpn%60)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := uint64(i % 32)
		r.as.shadow(0, ViewApp).Unmap(vpn)
		r.v.tlbInvalidatePage(vpn)
		if _, err := r.v.Translate(r.as, ViewApp, vpn, mmu.AccessRead, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloakTransitionRoundTrip(b *testing.B) {
	// One full encrypt-on-kernel-access + decrypt-on-app-access cycle.
	r := benchRig(b)
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("bench")); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.v.ReadVirt(r.as, ViewSystem, 20*mach.PageSize, buf, false); err != nil {
			b.Fatal(err)
		}
		if err := r.v.ReadVirt(r.as, ViewApp, 20*mach.PageSize, buf, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDropFrameMappings measures one cloaked frame's encrypt→decrypt
// transition while 64 other resident pages are mapped in both views. Each
// transition drops every shadow mapping of the frame, so beside the page
// crypto this times how the VMM finds those mappings among the others.
func BenchmarkDropFrameMappings(b *testing.B) {
	r := newSizedRig(&testing.T{}, 128, Options{})
	v := r.v
	r.cloakSetup(20, 1)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("bench")); err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		r.mapGuest(r.as, 100+i, mach.GPPN(32+i))
		for view := View(0); view < numViews; view++ {
			if _, err := v.Translate(r.as, view, 100+i, mmu.AccessRead, view == ViewApp); err != nil {
				b.Fatal(err)
			}
		}
	}
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.ReadVirt(r.as, ViewSystem, 20*mach.PageSize, buf, false); err != nil {
			b.Fatal(err)
		}
		if err := v.ReadVirt(r.as, ViewApp, 20*mach.PageSize, buf, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecureControlTransfer(b *testing.B) {
	r := benchRig(b)
	c, _ := r.v.HCCreateDomain(r.as)
	th := r.v.CreateThread(c.Domain())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.EnterKernel(TrapSyscall)
		if err := th.ExitKernel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadVirtBulk(b *testing.B) {
	r := benchRig(b)
	for vpn := uint64(0); vpn < 16; vpn++ {
		r.mapGuest(r.as, vpn, mach.GPPN(vpn)+1)
	}
	buf := make([]byte, 16*mach.PageSize)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.v.ReadVirt(r.as, ViewApp, 0, buf, true); err != nil {
			b.Fatal(err)
		}
	}
}
