package harness

import (
	"testing"
)

// TestE17AdversarySweepContained pins the typed-outcome contract on every
// battery scenario at 1 and 4 vCPUs. The 'contained' column is the whole
// contract (each predicted signal fires, the victim finishes exactly where
// predicted, the honest baseline trips nothing); leak-freedom and sibling
// service are checked on their own as well. It also pins determinism: the
// same seed yields byte-identical JSON per vCPU count.
func TestE17AdversarySweepContained(t *testing.T) {
	for _, vcpus := range []int{1, 4} {
		opts := quick()
		opts.VCPUs = vcpus
		tab := RunE17(opts)
		if len(tab.Rows) != len(e17scenarios()) {
			t.Fatalf("vcpus=%d: E17 rows = %d, want %d", vcpus, len(tab.Rows), len(e17scenarios()))
		}
		for _, r := range tab.Rows {
			for _, c := range []struct {
				col  int
				name string
			}{{8, "contained"}, {7, "leak-free"}, {6, "sibling intact"}} {
				if r.Values[c.col] != 1 {
					t.Errorf("vcpus=%d %s: %s = %v, want 1 (row %v)", vcpus, r.Name, c.name, r.Values[c.col], r.Values)
				}
			}
		}
		// Determinism: the sweep is a pure function of (seed, vcpus).
		again := RunE17(opts)
		if tab.JSON() != again.JSON() {
			t.Errorf("vcpus=%d: E17 not deterministic for a fixed seed", vcpus)
		}
	}
}
