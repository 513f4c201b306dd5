// Package ordered holds the simulated machine's one way to walk a map. Go
// randomizes map iteration order, so a machine that ranged over a map could
// charge cycles, emit spans or write bytes in a different order on every
// run of one seed; the determinism analyzer bans map ranges in the machine,
// and Keys is its reviewed exemption.
//
// It is a leaf package so every machine package can import it: obs cannot
// import sim, which already imports obs.
package ordered

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m in ascending order.
//
// m is a map[K]V rather than a type parameter M ~map[K]V: the analyzer reads
// the underlying type of a range expression, and a type parameter's is its
// constraint interface, so a range over M would escape the rule.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//overlint:allow determinism -- the keys are collected, then sorted before anyone sees them
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
