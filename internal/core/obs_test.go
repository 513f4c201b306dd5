package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"overshadow/internal/core"
	"overshadow/internal/obs"
)

// The observability pipeline must be a pure function of the seed: the same
// workload on the same seed yields byte-identical trace and report exports,
// and different seeds yield their own stable goldens. Regenerate with
//
//	go test ./internal/core -run Golden -update

var updateObs = flag.Bool("update", false, "rewrite observability golden files")

// observedRun executes a small cloaked workload with full instrumentation
// and returns the world's spans, ring state, attributed metrics, and
// stack-attributed profile. Profiling rides along on the same run the trace
// golden pins, which doubles as proof that enabling it does not perturb the
// simulation.
func observedRun(t *testing.T, seed uint64) ([]obs.Span, obs.RingStats, *obs.Metrics, *obs.Profile) {
	t.Helper()
	sys := core.NewSystem(core.Config{MemoryPages: 1024, Seed: seed})
	sys.World.EnableTrace(1 << 14)
	m := sys.World.EnableMetrics(nil)
	sys.World.SetPhase("golden")
	p := sys.World.EnableProfile()
	sys.Register("golden", func(e core.Env) {
		buf, err := e.Alloc(2)
		if err != nil {
			t.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		payload := make([]byte, 4096)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		e.WriteMem(buf, payload)
		fd, err := e.Open("/golden.dat", core.OCreate|core.ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			e.Exit(1)
		}
		for i := 0; i < 4; i++ {
			e.Null()
			if _, err := e.Pwrite(fd, buf, 4096, uint64(i)*4096); err != nil {
				t.Errorf("pwrite: %v", err)
			}
			if _, err := e.Pread(fd, buf, 4096, 0); err != nil {
				t.Errorf("pread: %v", err)
			}
		}
		if err := e.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
		// Sweep more pages than the 256-entry TLB holds: victim selection is
		// seeded-random, so different seeds genuinely diverge (and identical
		// seeds must still match exactly).
		sweep, err := e.Alloc(400)
		if err != nil {
			t.Errorf("alloc sweep: %v", err)
			e.Exit(1)
		}
		for round := 0; round < 2; round++ {
			for p := 0; p < 400; p++ {
				e.Store64(sweep+core.Addr(p*core.PageSize), uint64(round+p))
			}
		}
		e.Exit(0)
	})
	if _, err := sys.Spawn("golden", core.Cloaked()); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	sys.Run()
	spans, ring := sys.World.TraceSpans()
	return spans, ring, m, p
}

// observedReport is the run report of observedRun's world.
func observedReport(t *testing.T, seed uint64) *obs.Report {
	t.Helper()
	_, ring, m, p := observedRun(t, seed)
	return obs.BuildReport(m, p, ring.Dropped)
}

func checkObsGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateObs {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (len got %d, want %d); inspect and regenerate with -update",
			name, len(got), len(want))
	}
}

// TestChromeTraceGolden pins the full simulate→trace→export pipeline to
// byte-identical output per seed.
func TestChromeTraceGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		spans, ring, _, _ := observedRun(t, seed)
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, spans, ring); err != nil {
			t.Fatal(err)
		}
		checkObsGolden(t, goldenName("trace", seed), buf.Bytes())
	}
}

// TestReportGolden pins the run report per seed: the per-task, per-phase
// and per-counter cycle buckets, the folded stacks, the per-(kind, domain)
// duration histograms and the dropped-span count that overbench -report
// ships.
func TestReportGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		var buf bytes.Buffer
		if err := obs.WriteReport(&buf, observedReport(t, seed)); err != nil {
			t.Fatal(err)
		}
		checkObsGolden(t, goldenName("report", seed), buf.Bytes())
	}
}

// TestMetricsGolden pins the report's attribution section per seed: the
// per-task, per-phase and per-counter cycle buckets and the total they sum
// to, the split overbench -metrics shipped on its own before the report.
// TestReportGolden pins the same bytes; this names the first bucket that
// drifted.
func TestMetricsGolden(t *testing.T) {
	if *updateObs {
		return // TestReportGolden rewrites the golden this reads
	}
	for _, seed := range []uint64{1, 2} {
		got, want := observedReport(t, seed), goldenReport(t, seed)
		if got.TotalCycles != want.TotalCycles {
			t.Errorf("seed %d: report total %d cycles, golden %d", seed, got.TotalCycles, want.TotalCycles)
		}
		checkSection(t, seed, "buckets", got.Buckets, want.Buckets)
	}
}

// goldenReport decodes the report golden of seed.
func goldenReport(t *testing.T, seed uint64) *obs.Report {
	t.Helper()
	path := filepath.Join("testdata", goldenName("report", seed))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
	}
	r, err := obs.ParseReport(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return r
}

// checkSection compares one list of a fresh report with the golden's, one
// element at a time in its JSON form, and names the first that drifted.
func checkSection[T any](t *testing.T, seed uint64, section string, got, want []T) {
	t.Helper()
	enc := func(l []T, i int) []byte {
		if i >= len(l) {
			return nil
		}
		b, err := json.Marshal(l[i])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		if g, w := enc(got, i), enc(want, i); !bytes.Equal(g, w) {
			t.Errorf("seed %d: report %s[%d] drifted from golden (%d vs %d entries):\n got  %s\n want %s",
				seed, section, i, len(got), len(want), g, w)
			return
		}
	}
}

func goldenName(kind string, seed uint64) string {
	if seed == 1 {
		return kind + "_seed1." + ext(kind)
	}
	return kind + "_seed2." + ext(kind)
}

func ext(kind string) string {
	if kind == "trace" || kind == "report" {
		return "json"
	}
	return "txt"
}

// TestObservabilityDeterministic runs the same seed twice and demands
// identical metrics snapshots and byte-identical exports — the property the
// goldens rely on, checked directly so a violation fails even with -update.
func TestObservabilityDeterministic(t *testing.T) {
	spans1, ring1, m1, p1 := observedRun(t, 7)
	spans2, ring2, m2, p2 := observedRun(t, 7)
	if ring1 != ring2 {
		t.Fatalf("ring stats differ across same-seed runs: %+v vs %+v", ring1, ring2)
	}
	if !reflect.DeepEqual(m1.Snapshot(), m2.Snapshot()) {
		t.Fatalf("attributed metrics snapshots differ across same-seed runs")
	}
	var b1, b2 bytes.Buffer
	if err := obs.WriteChromeTrace(&b1, spans1, ring1); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&b2, spans2, ring2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("chrome trace export differs across same-seed runs")
	}
	var r1, r2 bytes.Buffer
	if err := obs.WriteReport(&r1, obs.BuildReport(m1, p1, ring1.Dropped)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteReport(&r2, obs.BuildReport(m2, p2, ring2.Dropped)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
		t.Fatalf("report export differs across same-seed runs")
	}
}

// TestTraceCoversSpanKinds asserts the instrumented stack emits the span
// taxonomy end to end: a cloaked workload doing syscalls and file I/O must
// produce at least five distinct span kinds.
func TestTraceCoversSpanKinds(t *testing.T) {
	spans, _, _, _ := observedRun(t, 1)
	kinds := map[obs.Kind]bool{}
	for _, s := range spans {
		kinds[s.Kind] = true
	}
	if len(kinds) < 5 {
		t.Fatalf("expected at least 5 span kinds, got %d: %v", len(kinds), kinds)
	}
	for _, k := range []obs.Kind{obs.KindSyscall, obs.KindWorldSwitch, obs.KindCTC, obs.KindDisk} {
		if !kinds[k] {
			t.Errorf("expected span kind %v in end-to-end trace", k)
		}
	}
}
