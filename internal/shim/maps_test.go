package shim

import (
	"slices"
	"testing"

	"overshadow/internal/cloak"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
)

// TestMappingsMatchReference drives the mapping table with seeded add,
// remove, at and overlap steps and checks every answer against a brute-force
// model: an unordered list scanned entry by entry. Ranges cluster at both
// edges of the mmap window, and adds often start where an entry ends or end
// where one starts, so the boundary cases of the binary search (adjacent
// ranges, the first and last pages of the window) recur throughout.
func TestMappingsMatchReference(t *testing.T) {
	const (
		steps = 20000
		edge  = 48 // pages of the window, at each end, the steps touch
	)
	lo, hi := guestos.LayoutMmapBase, guestos.LayoutMmapMax
	rng := sim.NewRNG(5)
	var table mappings
	var ref []mapping
	refOverlaps := func(vpn, pages uint64) bool {
		for _, m := range ref {
			if m.base < vpn+pages && vpn < m.base+m.pages {
				return true
			}
		}
		return false
	}
	refAt := func(vpn uint64) (mapping, bool) {
		for _, m := range ref {
			if m.base == vpn {
				return m, true
			}
		}
		return mapping{}, false
	}
	// pick draws a range near one edge of the window, often adjacent to an
	// entry already held, and always wholly inside the window.
	pick := func() (uint64, uint64) {
		pages := uint64(1 + rng.Intn(6))
		var vpn uint64
		switch {
		case len(ref) > 0 && rng.Intn(3) == 0:
			m := ref[rng.Intn(len(ref))]
			vpn = m.base + m.pages // starts where m ends
			if rng.Intn(2) == 0 {
				vpn = m.base - pages // ends where m starts
			}
		case rng.Intn(2) == 0:
			vpn = lo + uint64(rng.Intn(edge))
		default:
			vpn = hi - 1 - uint64(rng.Intn(edge))
		}
		vpn = min(max(vpn, lo), hi-1)
		return vpn, min(pages, hi-vpn)
	}
	kinds := []mapKind{mapAnon, mapShm, mapScratch, mapWindow}
	adds := 0
	for step := 0; step < steps; step++ {
		vpn, pages := pick()
		switch op := rng.Intn(8); {
		case op < 3: // add, after the validation the shim makes first
			if got, want := table.overlaps(vpn, pages), refOverlaps(vpn, pages); got != want {
				t.Fatalf("step %d: overlaps(%d, %d) = %v, reference %v", step, vpn, pages, got, want)
			}
			if refOverlaps(vpn, pages) {
				break
			}
			m := mapping{base: vpn, pages: pages, kind: kinds[rng.Intn(len(kinds))], res: cloak.ResourceID(1 + rng.Intn(8))}
			table.add(m)
			ref = append(ref, m)
			adds++
		case op < 5: // remove an entry's base, or a page no entry starts at
			if len(ref) > 0 && rng.Intn(4) != 0 {
				vpn = ref[rng.Intn(len(ref))].base
			}
			table.remove(vpn)
			ref = slices.DeleteFunc(ref, func(m mapping) bool { return m.base == vpn })
		case op < 6: // at
			got, gok := table.at(vpn)
			want, wok := refAt(vpn)
			if got != want || gok != wok {
				t.Fatalf("step %d: at(%d) = %+v, %v; reference %+v, %v", step, vpn, got, gok, want, wok)
			}
		default: // overlap
			if got, want := table.overlaps(vpn, pages), refOverlaps(vpn, pages); got != want {
				t.Fatalf("step %d: overlaps(%d, %d) = %v, reference %v", step, vpn, pages, got, want)
			}
		}
		if len(table) != len(ref) {
			t.Fatalf("step %d: table holds %d entries, reference %d", step, len(table), len(ref))
		}
		for i, m := range table {
			if i > 0 && table[i-1].base+table[i-1].pages > m.base {
				t.Fatalf("step %d: entries %+v and %+v out of order or overlapping", step, table[i-1], m)
			}
			if want, ok := refAt(m.base); !ok || want != m {
				t.Fatalf("step %d: entry %+v, reference %+v, %v", step, m, want, ok)
			}
		}
	}
	if adds < steps/8 {
		t.Fatalf("only %d adds in %d steps: the table stayed too full to test", adds, steps)
	}
}
