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
// machine costs the host only the frames its guest touches. The frame table
// is a directory of chunkFrames-frame chunks, each allocated when one of its
// frames is first backed, so the table too grows with the frames touched
// rather than with the machine's size.
type Memory struct {
	chunks []*frameChunk
	frames int
}

// chunkFrames is how many frames one directory entry covers.
const chunkFrames = 64

type frameChunk [chunkFrames]*[PageSize]byte

// NewMemory builds RAM with the given number of frames, none of them backed.
func NewMemory(frames int) *Memory {
	if frames <= 0 {
		panic("mach: memory must have at least one frame")
	}
	return &Memory{chunks: make([]*frameChunk, (frames+chunkFrames-1)/chunkFrames), frames: frames}
}

// Page returns the backing bytes of frame mpn, backing it first if it was
// never touched. The returned slice aliases machine memory; writes through it
// are real writes. Only trusted components (the VMM and the simulated
// hardware) hold Memory directly.
func (m *Memory) Page(mpn MPN) []byte {
	if i := mpn / chunkFrames; i < MPN(len(m.chunks)) {
		if c := m.chunks[i]; c != nil {
			if f := c[mpn%chunkFrames]; f != nil {
				return f[:]
			}
		}
	}
	return m.back(mpn)
}

// back backs frame mpn, and its chunk if need be, on the frame's first
// touch, so Page's path for a backed frame is two loads and no range check
// beyond the directory's length.
func (m *Memory) back(mpn MPN) []byte {
	m.check(mpn)
	c := m.chunks[mpn/chunkFrames]
	if c == nil {
		c = new(frameChunk)
		m.chunks[mpn/chunkFrames] = c
	}
	f := new([PageSize]byte)
	c[mpn%chunkFrames] = f
	return f[:]
}

// Zero clears frame mpn. A frame that was never backed already reads as
// zeros and stays unbacked.
func (m *Memory) Zero(mpn MPN) {
	m.check(mpn)
	if c := m.chunks[mpn/chunkFrames]; c != nil && c[mpn%chunkFrames] != nil {
		*c[mpn%chunkFrames] = [PageSize]byte{}
	}
}

func (m *Memory) check(mpn MPN) {
	if mpn >= MPN(m.frames) {
		panic(fmt.Sprintf("mach: MPN %d out of range (%d frames)", mpn, m.frames))
	}
}
