package core_test

import (
	"bytes"
	"testing"

	"overshadow/internal/obs"
)

// The profiler's renderings must be pure functions of the seed, exactly like
// the trace and report they ride alongside: the report's profile section,
// folded stacks and the top-N frame table are each pinned per seed.
// Regenerate with
//
//	go test ./internal/core -run Golden -update

// TestProfileArtifactGolden pins the report's profile section per seed: the
// folded stacks, the per-(kind, domain) duration histograms and the
// dropped-span count, what overbench -profile shipped on its own before the
// report. TestReportGolden pins the same bytes; this names the first stack
// or histogram that drifted.
func TestProfileArtifactGolden(t *testing.T) {
	if *updateObs {
		return // TestReportGolden rewrites the golden this reads
	}
	for _, seed := range []uint64{1, 2} {
		got, want := observedReport(t, seed), goldenReport(t, seed)
		if got.DroppedSpans != want.DroppedSpans {
			t.Errorf("seed %d: report drops %d spans, golden %d", seed, got.DroppedSpans, want.DroppedSpans)
		}
		checkSection(t, seed, "folded", got.Folded, want.Folded)
		checkSection(t, seed, "histograms", got.Histograms, want.Histograms)
	}
}

// TestFoldedGolden pins the flame-graph collapsed-stack rendering per seed.
func TestFoldedGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		var buf bytes.Buffer
		if err := obs.WriteFolded(&buf, observedReport(t, seed)); err != nil {
			t.Fatal(err)
		}
		checkObsGolden(t, goldenName("folded", seed), buf.Bytes())
	}
}

// TestTopFramesGolden pins the top-N self/total frame table per seed.
func TestTopFramesGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		var buf bytes.Buffer
		if err := obs.WriteTopN(&buf, observedReport(t, seed), 10); err != nil {
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
