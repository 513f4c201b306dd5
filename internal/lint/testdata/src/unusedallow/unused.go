// Package persist is allow-directive testdata, loaded under the import path
// of a machine package, where a map range is a determinism finding: an
// allow directive name that suppresses nothing must itself be reported.
package persist

// sum's map range is a finding, which the directive suppresses.
func sum(m map[int]int) int {
	n := 0
	//overlint:allow determinism -- testdata: a commutative sum
	for _, v := range m {
		n += v
	}
	return n
}

// count ranges a slice, so the directive has nothing to suppress.
func count(s []int) int {
	n := 0
	//overlint:allow determinism -- testdata: stale, the loop ranges a slice
	for range s {
		n++
	}
	return n
}

// keys' directive suppresses the map range, but cyclecharge finds nothing.
func keys(m map[int]bool) int {
	n := 0
	//overlint:allow determinism,cyclecharge -- testdata: cyclecharge is stale
	for range m {
		n++
	}
	return n
}
