// Package lintbad is driver testdata: each allow directive is malformed and
// must itself be reported.
package lintbad

// No "-- reason" clause.
//
//overlint:allow determinism
func noReason() {}

// Names an analyzer that is not in the production set.
//
//overlint:allow hotpathalloc -- stale directive for a deleted analyzer
func staleName() {}

// The wildcard is not an analyzer name.
//
//overlint:allow * -- blanket exception
func wildcard() {}
