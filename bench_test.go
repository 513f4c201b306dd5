package overshadow_test

// BenchmarkExperiment is the per-experiment host-time instrument: one
// sub-benchmark per experiment in DESIGN.md's index, each running that
// experiment alone and serially at quick scale, so ns/op is its own host
// cost. sim_cycles/op is the experiment's simulated-cycle total, identical
// on every host; each sub-benchmark logs its table. `cmd/overbench -full`
// prints the full-scale tables.

import (
	"testing"

	"overshadow/internal/harness"
)

func BenchmarkExperiment(b *testing.B) {
	opts := harness.Options{Quick: true, Seed: 1}
	for _, e := range harness.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			var r harness.Result
			for i := 0; i < b.N; i++ {
				r = harness.RunAll(opts, []harness.Experiment{e}, 1)[0]
			}
			b.ReportMetric(float64(r.SimCycles), "sim_cycles/op")
			b.Logf("\n%s", r.Table)
		})
	}
}
