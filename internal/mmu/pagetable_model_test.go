package mmu

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"overshadow/internal/sim"
)

// ptRegions are the windows the page-table model draws VPNs from: the guest
// layout's heap, mmap area, shim scratch window and stack (guestos.Layout*),
// each widened past its edges so that draws cross leaf (64-page) and
// middle-node (4,096-page) boundaries, and the table's top edge, which runs
// two VPNs past MaxVPN.
var ptRegions = [...]struct{ base, span uint64 }{
	{0x100 - 64, 0x800},                     // heap
	{0x20000 - 0x200, 0x800},                // mmap area, across a middle node
	{0xD0000 - 64, 64 + 128},                // shim scratch window
	{0xF0000 - 1024, 1024 + 64},             // stack, across a middle node
	{MaxVPN + 1 - 4096 - 64, 4096 + 64 + 2}, // the MaxVPN edge
}

// wildPNs are page numbers past what an entry holds, or at its limit.
var wildPNs = [...]uint64{maxPN, maxPN + 1, 1 << 60, 1<<60 | 3, ^uint64(0)}

// Page-table model operations, one per value of an operation's first byte
// modulo ptKinds.
const (
	ptMap      = iota // a present entry; two of the kinds, so tables fill
	ptMapAgain        // as ptMap
	ptMapRaw          // PN and flags below 4: the zero PTE, and non-present entries that keep a PN
	ptUnmap
	ptSetFlags
	ptClearFlags
	ptLookup // nothing but the checks
	ptClear  // Clear when the region byte is 0xFF, else as ptLookup
	ptKinds
)

// ptOpBytes is the size of one encoded operation: kind, region, two bytes
// of offset into the region, flags, PN selector and two bytes of PN.
const ptOpBytes = 8

// ptModel drives a PageTable and a map model of it with the same decoded
// operations and checks after each one that they agree.
type ptModel struct {
	t     testing.TB
	pt    *PageTable
	model map[uint64]PTE // what Lookup must return; a missing key reads as PTE{}
}

func newPTModel(t testing.TB) *ptModel {
	return &ptModel{t: t, pt: NewPageTable(), model: map[uint64]PTE{}}
}

// step decodes one operation from b, applies it to the table and the
// model, then checks Lookup around its VPN and an ascending RangeIn over
// its region that stops early and unmaps entries from inside its callback.
func (m *ptModel) step(b []byte) {
	m.t.Helper()
	r := ptRegions[int(b[1])%len(ptRegions)]
	vpn := r.base + uint64(binary.LittleEndian.Uint16(b[2:]))%r.span
	flags := Flags(b[4])
	pn := uint64(binary.LittleEndian.Uint16(b[6:]))
	if b[5]%4 == 0 {
		pn = wildPNs[int(b[6])%len(wildPNs)]
	}

	switch b[0] % ptKinds {
	case ptMap, ptMapAgain:
		m.mapEntry(vpn, PTE{PN: pn, Flags: flags | FlagPresent})
	case ptMapRaw:
		m.mapEntry(vpn, PTE{PN: pn % 4, Flags: flags % 4})
	case ptUnmap:
		m.pt.Unmap(vpn)
		delete(m.model, vpn)
	case ptSetFlags:
		want := m.model[vpn]
		if ok := m.pt.SetFlags(vpn, flags); ok != want.Present() {
			m.t.Fatalf("SetFlags(%#x) = %v on %v", vpn, ok, want)
		}
		if want.Present() {
			want.Flags |= flags
			m.model[vpn] = want
		}
	case ptClearFlags:
		want := m.model[vpn]
		if ok := m.pt.ClearFlags(vpn, flags); ok != want.Present() {
			m.t.Fatalf("ClearFlags(%#x) = %v on %v", vpn, ok, want)
		}
		if want.Present() {
			want.Flags &^= flags
			m.model[vpn] = want
		}
	case ptClear:
		if b[1] == 0xFF {
			m.pt.Clear()
			clear(m.model)
		}
	}

	for _, v := range []uint64{vpn - 1, vpn, vpn + 1} {
		if got, want := m.pt.Lookup(v), m.model[v]; got != want {
			m.t.Fatalf("Lookup(%#x) = %v, want %v", v, got, want)
		}
	}
	limit := 1 + int(b[4]^b[7])%48
	m.checkRange(r.base, r.base+r.span, limit, func(v uint64) int { return int((v + uint64(b[6])) % 8) })
}

// mapEntry maps pte at vpn; past MaxVPN, Map must panic and change nothing.
func (m *ptModel) mapEntry(vpn uint64, pte PTE) {
	m.t.Helper()
	if vpn > MaxVPN {
		defer func() {
			if recover() == nil {
				m.t.Fatalf("Map(%#x) past MaxVPN did not panic", vpn)
			}
		}()
		m.pt.Map(vpn, pte)
		return
	}
	m.pt.Map(vpn, pte)
	pte.PN = min(pte.PN, maxPN)
	if pte == (PTE{}) {
		delete(m.model, vpn)
	} else {
		m.model[vpn] = pte
	}
}

// Unmaps a checkRange callback makes: unmapSelf drops the entry it is
// given, unmapNext the next one the walk would visit (as a page-out during
// a fork's walk of the parent's table does), and any other value neither.
const (
	unmapSelf = iota
	unmapNext
)

// checkRange walks RangeIn(base, end), stopping after limit visits and
// unmapping inside the callback what unmap selects for each visited VPN,
// and checks that it visits the model's present VPNs in the range,
// ascending, each once, with the model's entries, and skips an entry
// unmapped ahead of it.
func (m *ptModel) checkRange(base, end uint64, limit int, unmap func(vpn uint64) int) {
	m.t.Helper()
	var want []uint64
	for v, pte := range m.model {
		if v >= base && v < end && pte.Present() {
			want = append(want, v)
		}
	}
	slices.Sort(want)
	n := 0
	m.pt.RangeIn(base, end, func(vpn uint64, pte PTE) bool {
		if n >= len(want) || vpn != want[n] {
			m.t.Fatalf("RangeIn[%#x,%#x) visit %d is %#x, want %#x", base, end, n, vpn, want)
		}
		if pte != m.model[vpn] {
			m.t.Fatalf("RangeIn visited %#x with %v, model holds %v", vpn, pte, m.model[vpn])
		}
		switch unmap(vpn) {
		case unmapSelf:
			m.pt.Unmap(vpn)
			delete(m.model, vpn)
		case unmapNext:
			if n+1 < len(want) {
				m.pt.Unmap(want[n+1])
				delete(m.model, want[n+1])
				want = slices.Delete(want, n+1, n+2)
			}
		}
		n++
		return n < limit
	})
	if n != min(limit, len(want)) {
		m.t.Fatalf("RangeIn[%#x,%#x) visited %d entries, want %d", base, end, n, min(limit, len(want)))
	}
}

// checkAll checks Lookup at every VPN the model holds and a full Range.
func (m *ptModel) checkAll() {
	m.t.Helper()
	for v, want := range m.model {
		if got := m.pt.Lookup(v); got != want {
			m.t.Fatalf("Lookup(%#x) = %v, want %v", v, got, want)
		}
	}
	m.checkRange(0, MaxVPN+1, len(m.model)+1, func(uint64) int { return -1 })
}

// TestPageTableMatchesModel runs seeded operation sequences (map, unmap,
// set and clear flags, clear) over the guest layout's regions and the
// MaxVPN edge against a map model, checking Lookup and a stopping,
// unmapping RangeIn after every step and the whole table every 256 steps.
func TestPageTableMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		m := newPTModel(t)
		op := make([]byte, ptOpBytes)
		for step := 1; step <= 5000; step++ {
			rng.Bytes(op)
			m.step(op)
			if step%256 == 0 {
				m.checkAll()
			}
		}
		m.checkAll()
	}
}

// FuzzPageTable decodes its input into the model's operation sequences,
// 8 bytes an operation: the guest kernel writes these tables and the VMM
// reads them.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{})
	// Map a wild PN at the top edge, set flags on it, then walk.
	f.Add([]byte{
		ptMap, 4, 0x3F, 0x10, 0x00, 0, 2, 0,
		ptSetFlags, 4, 0x3F, 0x10, byte(FlagDirty), 1, 0, 0,
		ptClearFlags, 4, 0x3F, 0x10, byte(FlagPresent), 1, 0, 0,
	})
	// Fill both sides of the mmap area's middle-node boundary, unmap one,
	// then clear.
	f.Add([]byte{
		ptMap, 1, 0xFF, 0x01, 0x02, 1, 7, 0,
		ptMap, 1, 0x00, 0x02, 0x02, 1, 8, 0,
		ptMapRaw, 1, 0x01, 0x02, 0x00, 1, 0, 0,
		ptUnmap, 1, 0xFF, 0x01, 0, 0, 0, 0,
		ptClear, 0xFF, 0, 0, 0, 0, 0, 0,
	})
	rng := sim.NewRNG(99)
	seed := make([]byte, 64*ptOpBytes)
	rng.Bytes(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newPTModel(t)
		for ; len(data) >= ptOpBytes; data = data[ptOpBytes:] {
			m.step(data[:ptOpBytes])
		}
		m.checkAll()
	})
}

// bytesPerRun reports the host bytes f allocates per call, averaged over
// runs calls, with one P running as testing.AllocsPerRun does.
func bytesPerRun(runs int, f func(i int)) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestPageTableHostBytes pins a table's host bytes to the VPNs it maps: the
// first Map allocates at most 4 KiB, a further page in a populated leaf
// allocates nothing, and a new leaf, with or without a new middle node,
// allocates at most 1 KiB.
func TestPageTableHostBytes(t *testing.T) {
	const runs = 100
	pte := PTE{PN: 7, Flags: FlagPresent | FlagWritable | FlagUser}
	fresh := func(vpns ...uint64) []*PageTable {
		tables := make([]*PageTable, runs)
		for i := range tables {
			tables[i] = NewPageTable()
			for _, v := range vpns {
				tables[i].Map(v, pte)
			}
		}
		return tables
	}
	const heap = 0x100
	for _, c := range []struct {
		name   string
		tables []*PageTable
		vpn    uint64
		max    uint64
	}{
		{"first page", fresh(), heap, 4 << 10},
		{"page in a populated leaf", fresh(heap), heap + 1, 0},
		{"leaf in a populated middle node", fresh(heap), heap + leafSize, 1 << 10},
		{"leaf in a new middle node", fresh(heap), MaxVPN, 1 << 10},
	} {
		if got := bytesPerRun(runs, func(i int) { c.tables[i].Map(c.vpn, pte) }); got > c.max {
			t.Errorf("%s: Map allocates %d B, want at most %d", c.name, got, c.max)
		}
	}
}
