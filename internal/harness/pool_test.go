package harness

import (
	"bytes"
	"strings"
	"testing"

	"overshadow/internal/obs"
)

// renderAll runs the full registry under RunAll and renders every export
// surface: table JSON, merged metrics JSON, the concatenated Chrome trace,
// and the per-experiment simulated-cycle totals.
func renderAll(t *testing.T, seed uint64, shards int) (tables, metrics, trace string, cycles []uint64) {
	t.Helper()
	ob := &Observer{TraceCap: 1 << 14}
	opts := Options{Quick: true, Seed: seed, Observe: ob}
	results := RunAll(opts, Registry(), shards)

	var tabs strings.Builder
	for _, r := range results {
		tabs.WriteString(r.Table.JSON())
		tabs.WriteByte('\n')
		cycles = append(cycles, r.SimCycles)
	}
	var met bytes.Buffer
	if err := obs.WriteMetricsJSON(&met, ob.MergedMetrics()); err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	spans, ring := ob.Trace()
	if err := obs.WriteChromeTrace(&tr, spans, ring); err != nil {
		t.Fatal(err)
	}
	return tabs.String(), met.String(), tr.String(), cycles
}

// TestShardDeterminism is the harness's core guarantee: for any shard count,
// every export is byte-identical — sharding may only change host wall time.
// Two seeds guard against a coincidental ordering collision.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry determinism sweep is slow")
	}
	for _, seed := range []uint64{1, 42} {
		tab1, met1, tr1, cyc1 := renderAll(t, seed, 1)
		tab8, met8, tr8, cyc8 := renderAll(t, seed, 8)
		if tab1 != tab8 {
			t.Errorf("seed %d: table JSON differs between -shards 1 and -shards 8", seed)
		}
		if met1 != met8 {
			t.Errorf("seed %d: metrics JSON differs between -shards 1 and -shards 8", seed)
		}
		if tr1 != tr8 {
			t.Errorf("seed %d: trace export differs between -shards 1 and -shards 8", seed)
		}
		for i := range cyc1 {
			if cyc1[i] != cyc8[i] {
				t.Errorf("seed %d: experiment %d SimCycles %d (serial) != %d (sharded)",
					seed, i, cyc1[i], cyc8[i])
			}
		}
		if len(tr1) == 0 || !strings.Contains(tr1, "traceEvents") {
			t.Fatalf("seed %d: trace export empty or malformed", seed)
		}
	}
}

// TestRunAllSerialMatchesDirect pins the back-compat contract: RunAll with
// one shard produces the same tables as calling each experiment directly
// (the path the per-experiment shape tests use).
func TestRunAllSerialMatchesDirect(t *testing.T) {
	exps := []Experiment{Registry()[1], Registry()[7]} // E2, E8: cheap + span-rich
	opts := Options{Quick: true, Seed: 7}
	results := RunAll(opts, exps, 1)
	for i, e := range exps {
		direct := e.Run(Options{Quick: true, Seed: 7})
		if results[i].Table.JSON() != direct.JSON() {
			t.Errorf("%s: RunAll table differs from direct Run", e.ID)
		}
		if results[i].SimCycles == 0 {
			t.Errorf("%s: RunAll reported zero simulated cycles", e.ID)
		}
		if results[i].HostNS <= 0 {
			t.Errorf("%s: RunAll reported non-positive host time", e.ID)
		}
	}
}

// TestSweepOrder pins sweep's contract directly: whatever order the jobs
// finish in, results come back in point order, and observer keys follow
// submission order — continuing across back-to-back sweeps, as a probe
// sweep followed by a point sweep does.
func TestSweepOrder(t *testing.T) {
	const n = 6
	points := make([]int, n)
	for i := range points {
		points[i] = i
	}
	type got struct{ point, key uint64 }
	// chain returns a job under which point p finishes only after point p+1
	// has, so on a pool wide enough to run every point at once the jobs
	// finish in reverse point order. A one-slot pool runs one job at a
	// time, so there the jobs run unchained, in whatever order they take
	// the slot.
	chain := func(wide bool) func(Options, int) got {
		done := make([]chan struct{}, n+1)
		for i := range done {
			done[i] = make(chan struct{})
		}
		close(done[n])
		return func(o Options, p int) got {
			if wide {
				<-done[p+1]
			}
			close(done[p])
			return got{uint64(p), o.obsKey}
		}
	}
	for _, width := range []int{1, 8} {
		opts := Options{pool: newPool(width), obsBase: 1 << 32, obsSeq: new(uint64)}
		wide := width >= n
		res := append(sweep(opts, points, chain(wide)), sweep(opts, points, chain(wide))...)
		for i, r := range res {
			if want := uint64(i % n); r.point != want {
				t.Errorf("width %d: result %d is point %d, want %d", width, i, r.point, want)
			}
			if want := uint64(1<<32 | i); r.key != want {
				t.Errorf("width %d: result %d has observer key %#x, want %#x", width, i, r.key, want)
			}
		}
	}
}
