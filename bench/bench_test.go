package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"testing"

	"overshadow/internal/sim"
)

// testConfig keeps each workload to one native/cloaked pair (seal: one
// migrating and one crashing world) and tiny probe batches.
var testConfig = config{worlds: 2, minPasses: 2, maxPasses: 2, probeScale: 0.002}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func loadDeclared(t *testing.T) (e2e, layers []declaredMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d.EndToEnd, d.PerLayer
}

// checkEmitted fails unless res carries exactly the declared metrics, each
// with its declared unit.
func checkEmitted(t *testing.T, res result, decl []declaredMetric) {
	t.Helper()
	if len(res.Metrics) != len(decl) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(decl))
	}
	for _, d := range decl {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s not emitted", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func checkCorrect(t *testing.T, b *bench, res result) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted != len(b.worlds) {
		t.Errorf("seed %d: %d of %d worlds failed", b.seed, res.Failed, res.Attempted)
		for _, err := range b.failed {
			if err != nil {
				t.Log(err)
			}
		}
	}
}

// simulated is the pass-independent outcome of a bench: every world's
// cycles and counters.
func simulated(b *bench) []any {
	var out []any
	for _, r := range b.ref {
		out = append(out, r.cycles, r.digest, r.stats)
	}
	return out
}

func sameSimulated(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case map[sim.Counter]uint64:
			if !maps.Equal(x, b[i].(map[sim.Counter]uint64)) {
				return false
			}
		default:
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

func TestWorkloads(t *testing.T) {
	e2e, layers := loadDeclared(t)
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			var first []any
			for _, seed := range []uint64{1, 2, 1} {
				b := newBench(testConfig, spec, seed)
				res := b.endToEnd()
				checkCorrect(t, b, res)
				checkEmitted(t, res, e2e)
				got := simulated(b)
				switch {
				case first == nil:
					first = got
				case seed == 2 && sameSimulated(first, got):
					t.Error("seeds 1 and 2 simulated the same worlds")
				case seed == 1 && !sameSimulated(first, got):
					t.Error("two runs of seed 1 simulated different outcomes")
				}
			}
			b := newBench(testConfig, spec, 1)
			res, err := b.layers("", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkCorrect(t, b, res)
			checkEmitted(t, res, layers)
			if !sameSimulated(first, simulated(b)) {
				t.Error("metrics and tracing changed the simulated outcome")
			}
		})
	}
}

// TestTracedSpansNest checks the traced pass's span tree: every kept span
// lies inside its parent, no self time is negative, and self times add up
// to exactly the worlds' durations.
func TestTracedSpansNest(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			b := newBench(testConfig, spec, 1)
			tr := newTracer()
			b.runPass(tr, false)
			for i, err := range b.failed {
				if err != nil {
					t.Fatalf("world %d: %v", i, err)
				}
			}
			var self int64
			for _, a := range tr.agg {
				self += a.self
			}
			if root := tr.agg[spanWorld].total; self != root || root <= 0 {
				t.Errorf("self times sum to %d ns, worlds lasted %d ns", self, root)
			}
			for i, s := range tr.spans {
				if s.self < 0 || s.end < s.start || s.self > s.end-s.start {
					t.Fatalf("span %d (%s): start %d end %d self %d", i, s.kind, s.start, s.end, s.self)
				}
				if s.parent < 0 {
					if s.kind != spanWorld {
						t.Fatalf("span %d (%s) has no parent", i, s.kind)
					}
					continue
				}
				if p := tr.spans[s.parent]; s.start < p.start || s.end > p.end {
					t.Fatalf("span %d (%s) [%d,%d] escapes parent %s [%d,%d]", i, s.kind, s.start, s.end, p.kind, p.start, p.end)
				}
			}
			for _, k := range []spanKind{spanWorld, spanNewSystem, spanRun, spanVerify} {
				if tr.agg[k].count == 0 {
					t.Errorf("no %s span recorded", k)
				}
			}
			if spec.name == "seal" && (tr.agg[spanMigrate].count == 0 || tr.agg[spanRestore].count == 0 || tr.agg[spanReboot].count == 0) {
				t.Error("seal recorded no migrate, restore or reboot span")
			}
		})
	}
}

// TestQuartilesMatchPython pins the spread statistic to Python's
// statistics.quantiles(v, n=4), which the benchmark's acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 ...float64) string {
		f, err := os.Create(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for i, v := range p50 {
			r := record{Workload: "kv", Seed: uint64(i + 1), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"world_ms_p50": {Value: v, Unit: "ms"}}}}
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return f.Name()
	}
	decl := dir + "/BENCHMARK.json"
	if err := os.WriteFile(decl, []byte(`{"end_to_end":[{"name":"world_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.jsonl", 10, 10.1, 9.9, 10, 10.2)
	for _, c := range []struct {
		name string
		b    []float64
		code int
	}{
		{"same", []float64{10.1, 9.9, 10, 10.05, 10}, 0},
		{"slower", []float64{12, 12.1, 11.9, 12, 12.2}, 1},
		{"faster", []float64{8, 8.1, 7.9, 8, 8.2}, 0},
	} {
		if got := runCompare(decl, base, write(c.name+".jsonl", c.b...), io.Discard, io.Discard); got != c.code {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.code)
		}
	}
}
