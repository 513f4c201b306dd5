// Package persist is determinism-analyzer testdata loaded under the
// production import path overshadow/internal/persist: the journal writes
// bytes to simulated stable storage, so ranging over a map anywhere in the
// package is a finding — serialized bytes must be a pure function of the
// simulation history, and Go randomizes map iteration order.
package persist

import "sort"

type pageID struct{ domain, index uint64 }

type journal struct {
	table map[pageID]uint64
	out   []byte
}

// checkpointBroken serializes straight out of map order: the exact bug the
// rule exists to catch — two runs of the same history write different disks.
func (j *journal) checkpointBroken() {
	for id, v := range j.table { // want `map iteration order is nondeterministic: walk ordered\.Keys\(m\) instead`
		j.out = append(j.out, byte(id.domain), byte(id.index), byte(v))
	}
}

// dropBroken looks harmless (no bytes appended), but the rule is
// package-wide on purpose: order-independence is a reviewed claim, recorded
// in an allow comment, never assumed.
func (j *journal) dropBroken(domain uint64) {
	for id := range j.table { // want `map iteration order is nondeterministic: walk ordered\.Keys\(m\) instead`
		if id.domain == domain {
			delete(j.table, id)
		}
	}
}

// checkpointSorted walks a key that is not cmp.Ordered, so ordered.Keys
// cannot sort it: collect under a reviewed allow, sort, then serialize from
// the slice.
func (j *journal) checkpointSorted() {
	ids := make([]pageID, 0, len(j.table))
	//overlint:allow determinism -- keys are collected then sorted before serialization
	for id := range j.table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].domain != ids[b].domain {
			return ids[a].domain < ids[b].domain
		}
		return ids[a].index < ids[b].index
	})
	for _, id := range ids {
		j.out = append(j.out, byte(id.domain), byte(id.index), byte(j.table[id]))
	}
}

// sliceSweep ranges a slice, not a map: deterministic, no finding.
func (j *journal) sliceSweep(recs []uint64) {
	for _, v := range recs {
		j.out = append(j.out, byte(v))
	}
}
