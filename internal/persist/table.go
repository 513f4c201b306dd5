package persist

import (
	"math"
	"slices"

	"overshadow/internal/cloak"
)

// TableEntry pairs a page identity with its live journal entry: one element
// of a Table.
type TableEntry struct {
	ID    cloak.PageID
	Entry Entry
}

// Table is the sealed page table: one entry per page the journal knows, in
// PageID order. The journal writer keeps one as its in-memory truth and
// Replay rebuilds one from disk, and both change it only through apply, so a
// record means the same change on either side. Ordered, a domain's entries
// are one contiguous run, a checkpoint serializes the table as it stands,
// and reboot, resume and migration walk it as it is.
type Table []TableEntry

// find returns the index of id's entry and true, or the index where id's
// entry belongs and false.
func (t Table) find(id cloak.PageID) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid].ID.Less(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t) && t[lo].ID == id
}

// Get returns id's entry and whether the table holds one.
func (t Table) Get(id cloak.PageID) (Entry, bool) {
	if i, ok := t.find(id); ok {
		return t[i].Entry, true
	}
	return Entry{}, false
}

// Set makes e id's entry, inserting it in PageID order.
func (t *Table) Set(id cloak.PageID, e Entry) {
	i, ok := t.find(id)
	if !ok {
		*t = slices.Insert(*t, i, TableEntry{ID: id})
	}
	(*t)[i].Entry = e
}

// domainRun returns the bounds [lo, hi) of domain d's entries: two binary
// searches, for the domain's first and past its last possible PageID.
func (t Table) domainRun(d cloak.DomainID) (lo, hi int) {
	lo, _ = t.find(cloak.PageID{Domain: d})
	hi, last := t.find(cloak.PageID{Domain: d, Resource: math.MaxUint64, Index: math.MaxUint64})
	if last {
		hi++
	}
	return lo, hi
}

// apply makes the change record r describes. A Put sets a page's metadata
// and a Locate its ciphertext location, each keeping the other half; a
// Snapshot replaces the whole entry (its location only when it carries one);
// a Delete drops one page and a DomainGone a domain's run. It reports false,
// changing nothing, for a Delete or DomainGone with nothing to drop and for
// a record of any other kind.
func (t *Table) apply(r Record) bool {
	switch r.Kind {
	case KindPut, KindLocate, KindSnapshot:
		i, ok := t.find(r.ID)
		if !ok {
			*t = slices.Insert(*t, i, TableEntry{ID: r.ID})
		}
		e := &(*t)[i].Entry
		if r.Kind == KindSnapshot {
			*e = Entry{}
		}
		if r.Kind != KindLocate {
			e.Meta = cloak.Meta{IV: r.IV, Hash: r.Hash, Version: r.Version}
			e.HasMeta = true
		}
		if r.Kind == KindLocate || r.Kind == KindSnapshot && r.Dev != DevNone {
			e.Dev, e.Block, e.LocVersion, e.HasLoc = r.Dev, r.Block, r.Version, true
		}
		return true
	case KindDelete:
		i, ok := t.find(r.ID)
		if ok {
			*t = slices.Delete(*t, i, i+1)
		}
		return ok
	case KindDomainGone:
		lo, hi := t.domainRun(r.ID.Domain)
		*t = slices.Delete(*t, lo, hi)
		return hi > lo
	}
	return false
}
