package mmu

import "sort"

// The two-level table covers a 32-bit-style virtual space: 10 bits of
// directory index, 10 bits of table index, 12 bits of offset. Virtual page
// numbers above 20 bits are rejected, which the guest address-space layout
// respects.
const (
	dirBits   = 10
	tableBits = 10
	tableSize = 1 << tableBits
	// MaxVPN is the highest representable virtual page number.
	MaxVPN = 1<<(dirBits+tableBits) - 1
)

// PageTable is a two-level page table. Guest kernels allocate one per
// address space; the VMM allocates one per shadow context.
type PageTable struct {
	dirs  [1 << dirBits]*[tableSize]PTE
	count int // number of present entries
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

func splitVPN(vpn uint64) (di, ti uint64) {
	return vpn >> tableBits, vpn & (tableSize - 1)
}

// Lookup returns the PTE for vpn. Entries never installed read as zero
// (not present).
func (t *PageTable) Lookup(vpn uint64) PTE {
	if vpn > MaxVPN {
		return PTE{}
	}
	di, ti := splitVPN(vpn)
	d := t.dirs[di]
	if d == nil {
		return PTE{}
	}
	return d[ti]
}

// Map installs (or replaces) the entry for vpn.
func (t *PageTable) Map(vpn uint64, pte PTE) {
	if vpn > MaxVPN {
		panic("mmu: VPN out of range")
	}
	di, ti := splitVPN(vpn)
	d := t.dirs[di]
	if d == nil {
		d = new([tableSize]PTE)
		t.dirs[di] = d
	}
	if d[ti].Present() != pte.Present() {
		if pte.Present() {
			t.count++
		} else {
			t.count--
		}
	}
	d[ti] = pte
}

// Unmap clears the entry for vpn; it is a no-op if nothing was mapped.
func (t *PageTable) Unmap(vpn uint64) {
	if vpn > MaxVPN {
		return
	}
	di, ti := splitVPN(vpn)
	d := t.dirs[di]
	if d == nil {
		return
	}
	if d[ti].Present() {
		t.count--
	}
	d[ti] = PTE{}
}

// SetFlags ORs extra flags into an existing present entry (used by the MMU
// for accessed/dirty bits). Returns false if vpn is not mapped.
func (t *PageTable) SetFlags(vpn uint64, extra Flags) bool {
	di, ti := splitVPN(vpn)
	d := t.dirs[di]
	if d == nil || !d[ti].Present() {
		return false
	}
	d[ti].Flags |= extra
	return true
}

// ClearFlags removes flags from an existing present entry (e.g. write
// protection for COW). Returns false if vpn is not mapped.
func (t *PageTable) ClearFlags(vpn uint64, drop Flags) bool {
	di, ti := splitVPN(vpn)
	d := t.dirs[di]
	if d == nil || !d[ti].Present() {
		return false
	}
	d[ti].Flags &^= drop
	return true
}

// Count reports the number of present entries.
func (t *PageTable) Count() int { return t.count }

// Range calls fn for every present entry in ascending VPN order; fn
// returning false stops the walk. The ordered walk keeps consumers (fork,
// page-out scans) deterministic.
func (t *PageTable) Range(fn func(vpn uint64, pte PTE) bool) {
	for di := uint64(0); di < 1<<dirBits; di++ {
		d := t.dirs[di]
		if d == nil {
			continue
		}
		for ti := uint64(0); ti < tableSize; ti++ {
			if d[ti].Present() {
				if !fn(di<<tableBits|ti, d[ti]) {
					return
				}
			}
		}
	}
}

// PresentVPNs returns all mapped VPNs sorted ascending.
func (t *PageTable) PresentVPNs() []uint64 {
	out := make([]uint64, 0, t.count)
	t.Range(func(vpn uint64, _ PTE) bool {
		out = append(out, vpn)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clear removes every entry.
func (t *PageTable) Clear() {
	for i := range t.dirs {
		t.dirs[i] = nil
	}
	t.count = 0
}
