// Package mach models the physical machine that everything else runs on:
// byte-addressable machine memory divided into 4 KiB frames backed on first
// touch, and a block-device disk used for the guest filesystem image and
// swap.
//
// Addresses come in three flavours throughout the system, following the
// paper's terminology:
//
//   - VA / VPN: guest-virtual addresses, what applications and the guest
//     kernel issue.
//   - GPA / GPPN: guest-physical, what the guest kernel believes is RAM.
//   - MA / MPN: machine addresses, real frames in this package. Only the
//     VMM sees these.
package mach

import "fmt"

// Core geometry of the simulated machine. 4 KiB pages, as on x86.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// MPN is a machine page number (machine address >> PageShift).
type MPN uint64

// GPPN is a guest-physical page number.
type GPPN uint64

// VPN is a guest-virtual page number.
type VPN uint64

// Addr is a byte address; context determines which space it is in.
type Addr uint64

// PageOf returns the page number containing a.
func PageOf(a Addr) uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func PageOffset(a Addr) uint64 { return uint64(a) & PageMask }

// PageBase returns the first address of the page containing a.
func PageBase(a Addr) Addr { return a &^ Addr(PageMask) }

// Memory is the machine's physical RAM, addressed by MPN. A frame is backed
// by host memory on its first Page call; until then it reads as zeros, so a
// machine costs the host only the frames its guest touches.
type Memory struct {
	frames []*[PageSize]byte
}

// NewMemory builds RAM with the given number of frames, none of them backed.
func NewMemory(frames int) *Memory {
	if frames <= 0 {
		panic("mach: memory must have at least one frame")
	}
	return &Memory{frames: make([]*[PageSize]byte, frames)}
}

// Page returns the backing bytes of frame mpn, backing it first if it was
// never touched. The returned slice aliases machine memory; writes through it
// are real writes. Only trusted components (the VMM and the simulated
// hardware) hold Memory directly.
func (m *Memory) Page(mpn MPN) []byte {
	m.check(mpn)
	if m.frames[mpn] == nil {
		m.frames[mpn] = new([PageSize]byte)
	}
	return m.frames[mpn][:]
}

// Zero clears frame mpn. A frame that was never backed already reads as
// zeros and stays unbacked.
func (m *Memory) Zero(mpn MPN) {
	m.check(mpn)
	if f := m.frames[mpn]; f != nil {
		*f = [PageSize]byte{}
	}
}

func (m *Memory) check(mpn MPN) {
	if int(mpn) >= len(m.frames) {
		panic(fmt.Sprintf("mach: MPN %d out of range (%d frames)", mpn, len(m.frames)))
	}
}
