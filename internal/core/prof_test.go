package core_test

import (
	"bytes"
	"testing"

	"overshadow/internal/obs"
)

// The profiler exports must be pure functions of the seed, exactly like the
// trace and metrics exports they ride alongside: folded stacks, the top-N
// frame table, and the histogram-bearing profile artifact each get a golden
// per seed. Regenerate with
//
//	go test ./internal/core -run Golden -update

// TestProfileArtifactGolden pins the full profile JSON artifact — folded
// stacks plus the per-(kind, domain) duration histograms and the dropped-span
// count — to byte-identical output per seed.
func TestProfileArtifactGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		_, _, _, p := observedRun(t, seed)
		var buf bytes.Buffer
		if err := obs.WriteProfileJSON(&buf, obs.BuildProfileJSON(p)); err != nil {
			t.Fatal(err)
		}
		checkObsGolden(t, goldenName("profile", seed), buf.Bytes())
	}
}

// TestFoldedGolden pins the flame-graph collapsed-stack rendering per seed.
func TestFoldedGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		_, _, _, p := observedRun(t, seed)
		var buf bytes.Buffer
		if err := obs.WriteFolded(&buf, obs.BuildProfileJSON(p)); err != nil {
			t.Fatal(err)
		}
		checkObsGolden(t, goldenName("folded", seed), buf.Bytes())
	}
}

// TestTopFramesGolden pins the top-N self/total frame table per seed.
func TestTopFramesGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		_, _, _, p := observedRun(t, seed)
		var buf bytes.Buffer
		if err := obs.WriteTopN(&buf, obs.BuildProfileJSON(p), 10); err != nil {
			t.Fatal(err)
		}
		checkObsGolden(t, goldenName("topn", seed), buf.Bytes())
	}
}

// TestProfileAccountsChargedCycles ties the profile to the cost model: every
// attributed-metrics cycle must land in exactly one profile leaf, so the two
// stores' totals agree.
func TestProfileAccountsChargedCycles(t *testing.T) {
	_, _, m, p := observedRun(t, 1)
	if got, want := p.TotalCycles(), m.TotalCycles(); got != want {
		t.Fatalf("profile total %d cycles, attributed metrics total %d", got, want)
	}
	if p.TotalCycles() == 0 {
		t.Fatal("profile recorded zero cycles on an instrumented run")
	}
}

// TestProfileHistogramsCoverSpanKinds checks that span completion feeds the
// duration histograms end to end for the kinds the workload exercises.
func TestProfileHistogramsCoverSpanKinds(t *testing.T) {
	_, _, _, p := observedRun(t, 1)
	for _, k := range []obs.Kind{obs.KindSyscall, obs.KindWorldSwitch, obs.KindDisk} {
		h := p.HistByKind(k)
		if h.Count() == 0 {
			t.Errorf("no %v span durations recorded", k)
			continue
		}
		if h.Percentile(50) == 0 || h.Percentile(99) < h.Percentile(50) {
			t.Errorf("%v percentiles implausible: p50=%d p99=%d", k, h.Percentile(50), h.Percentile(99))
		}
	}
}
