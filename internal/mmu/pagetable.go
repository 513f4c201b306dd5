package mmu

// The table covers a 32-bit-style virtual space: a 20-bit VPN over 4 KiB
// pages, split 8/6/6 into a root index, a middle index and a leaf index.
// Virtual page numbers above 20 bits are rejected, which the guest
// address-space layout respects.
const (
	rootBits = 8
	midBits  = 6
	leafBits = 6
	leafSize = 1 << leafBits
	midShift = leafBits + midBits // VPN bits below the root index
	// MaxVPN is the highest representable virtual page number.
	MaxVPN = 1<<(rootBits+midBits+leafBits) - 1
)

// entry is one PTE packed into 8 bytes: the flags in the low byte, the page
// number above them. The zero entry is the not-present PTE{}.
type entry uint64

const (
	flagBits = 8
	// maxPN is the largest page number an entry holds. A larger PN is
	// stored as maxPN, which no machine frame has, so a wild PN a guest
	// kernel writes reads back out of range (the VMM refuses it) and never
	// as a truncated PN that aliases a real frame.
	maxPN = 1<<(64-flagBits) - 1
)

func pack(p PTE) entry { return entry(min(p.PN, maxPN)<<flagBits | uint64(p.Flags)) }

func (e entry) pte() PTE { return PTE{PN: uint64(e >> flagBits), Flags: Flags(e)} }

func (e entry) present() bool { return Flags(e)&FlagPresent != 0 }

type (
	leaf [leafSize]entry
	mid  [1 << midBits]*leaf
	root [1 << rootBits]*mid
)

// PageTable is a three-level radix page table. Guest kernels allocate one
// per address space; the VMM allocates one per shadow context. Every level
// is allocated by the first Map that needs it and dropped only by Clear, so
// a table's host bytes follow the VPNs it maps: nothing while it maps
// nothing (an unused shadow view, a torn-down space), 3 KiB for its first
// page (a 2 KiB root, a 512 B middle node and a 512 B leaf), and at most
// 1 KiB for each further 64-page leaf.
type PageTable struct {
	root *root
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// leafOf returns the leaf holding vpn's entry, or nil if none is allocated.
// A VPN past MaxVPN has a root index past the root, so one comparison
// rejects it and bounds the index.
func (t *PageTable) leafOf(vpn uint64) *leaf {
	r := t.root
	if r == nil || vpn>>midShift >= uint64(len(r)) {
		return nil
	}
	if m := r[vpn>>midShift]; m != nil {
		return m[vpn>>leafBits%(1<<midBits)]
	}
	return nil
}

// Lookup returns the PTE for vpn. Entries never installed read as zero
// (not present).
func (t *PageTable) Lookup(vpn uint64) PTE {
	if l := t.leafOf(vpn); l != nil {
		return l[vpn%leafSize].pte()
	}
	return PTE{}
}

// Map installs (or replaces) the entry for vpn. A PN above what an entry
// holds reads back as one no machine frame has (see maxPN).
func (t *PageTable) Map(vpn uint64, pte PTE) {
	if vpn > MaxVPN {
		panic("mmu: VPN out of range")
	}
	if t.root == nil {
		t.root = new(root)
	}
	m := t.root[vpn>>midShift]
	if m == nil {
		m = new(mid)
		t.root[vpn>>midShift] = m
	}
	mi := vpn >> leafBits % (1 << midBits)
	l := m[mi]
	if l == nil {
		l = new(leaf)
		m[mi] = l
	}
	l[vpn%leafSize] = pack(pte)
}

// Unmap clears the entry for vpn; it is a no-op if nothing was mapped.
func (t *PageTable) Unmap(vpn uint64) {
	if l := t.leafOf(vpn); l != nil {
		l[vpn%leafSize] = 0
	}
}

// SetFlags ORs extra flags into an existing present entry (used by the MMU
// for accessed/dirty bits). Returns false if vpn is not mapped.
func (t *PageTable) SetFlags(vpn uint64, extra Flags) bool {
	l := t.leafOf(vpn)
	if l == nil || !l[vpn%leafSize].present() {
		return false
	}
	l[vpn%leafSize] |= entry(extra)
	return true
}

// ClearFlags removes flags from an existing present entry (e.g. write
// protection for COW). Returns false if vpn is not mapped.
func (t *PageTable) ClearFlags(vpn uint64, drop Flags) bool {
	l := t.leafOf(vpn)
	if l == nil || !l[vpn%leafSize].present() {
		return false
	}
	l[vpn%leafSize] &^= entry(drop)
	return true
}

// Range calls fn for every present entry in ascending VPN order; fn
// returning false stops the walk. The ordered walk keeps consumers (fork,
// page-out scans) deterministic.
func (t *PageTable) Range(fn func(vpn uint64, pte PTE) bool) {
	t.RangeIn(0, MaxVPN+1, fn)
}

// RangeIn calls fn for every present entry with base <= vpn < end, in
// ascending VPN order; fn returning false stops the walk. It skips a
// missing middle node's 4,096 VPNs and a missing leaf's 64 at one probe
// each, so its cost follows the table's populated leaves rather than the
// range's length; an end past MaxVPN+1 is clipped. fn may unmap the entry
// it is given (each entry is read just before fn runs, and Unmap frees no
// node), and the walk still visits every other entry exactly once.
func (t *PageTable) RangeIn(base, end uint64, fn func(vpn uint64, pte PTE) bool) {
	end = min(end, MaxVPN+1)
	for vpn := base; vpn < end && t.root != nil; {
		m := t.root[vpn>>midShift]
		if m == nil {
			vpn = (vpn>>midShift + 1) << midShift
			continue
		}
		next := (vpn>>leafBits + 1) << leafBits
		if l := m[vpn>>leafBits%(1<<midBits)]; l != nil {
			for ; vpn < min(end, next); vpn++ {
				if e := l[vpn%leafSize]; e.present() && !fn(vpn, e.pte()) {
					return
				}
			}
		}
		vpn = next
	}
}

// Clear removes every entry and drops every node.
func (t *PageTable) Clear() { t.root = nil }
