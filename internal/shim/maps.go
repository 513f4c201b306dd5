package shim

import (
	"slices"
	"sort"

	"overshadow/internal/cloak"
)

// mapKind says what a tracked mapping is for.
type mapKind uint8

const (
	mapAnon    mapKind = iota // anonymous cloaked region (Alloc)
	mapShm                    // protected shared-memory attachment (ShmAttach)
	mapScratch                // a spawned thread's uncloaked scratch window
	mapWindow                 // a cloaked file's mmap window
)

// mapping is one range of pages the shim mapped through the validated mmap
// path.
type mapping struct {
	base  uint64 // first VPN
	pages uint64
	kind  mapKind
	res   cloak.ResourceID // the region's private resource (mapAnon only)
}

// mappings is the shim's table of its own mappings in the mmap window, in
// ascending base order. Every entry is validated against the rest before it
// is added, so no two overlap, and their ends ascend with their bases.
type mappings []mapping

// search returns the index of the first entry that ends past vpn.
func (t mappings) search(vpn uint64) int {
	return sort.Search(len(t), func(i int) bool { return t[i].base+t[i].pages > vpn })
}

// overlaps reports whether [vpn, vpn+pages) intersects any entry.
func (t mappings) overlaps(vpn, pages uint64) bool {
	i := t.search(vpn)
	return i < len(t) && t[i].base < vpn+pages
}

// at returns the entry based at vpn.
func (t mappings) at(vpn uint64) (mapping, bool) {
	if i := t.search(vpn); i < len(t) && t[i].base == vpn {
		return t[i], true
	}
	return mapping{}, false
}

// add inserts m, which the caller has validated against the table.
func (t *mappings) add(m mapping) {
	*t = slices.Insert(*t, t.search(m.base), m)
}

// remove drops the entry based at vpn, if any.
func (t *mappings) remove(vpn uint64) {
	if i := t.search(vpn); i < len(*t) && (*t)[i].base == vpn {
		*t = slices.Delete(*t, i, i+1)
	}
}
