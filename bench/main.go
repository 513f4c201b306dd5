// Command bench is the repository benchmark: it measures what producing
// Overshadow's answer costs on the host, end to end and per layer, over
// four seeded streams of simulated worlds (see README.md).
//
//	go run . --workload compute --seed 1 --seconds 15 --trace 0
//	go run . --workload kv --trace 1 --trace-out kv-trace.json
//	go run . --compare before.jsonl after.jsonl
//
// It is a closed loop with one client: one world at a time, in one
// process. The last line of standard output is the result as JSON.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"overshadow/internal/sim"
)

// config sizes a run. main uses defaultConfig; the tests shrink it.
type config struct {
	worlds     int     // worlds per workload
	minPasses  int     // untraced passes at least (--trace 0)
	maxPasses  int     // untraced passes at most
	seconds    float64 // keep measuring at least this long
	probeScale float64 // share of the full probe batch sizes
}

var defaultConfig = config{worlds: 120, minPasses: 3, maxPasses: 25, probeScale: 1}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a --record file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	// One client on one core: the simulation is serial by design (the
	// scheduler baton), and a second P only adds cross-core goroutine
	// wake-ups and a concurrently running GC to the measured host time,
	// making it both slower and noisier.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "compute, paging, kv, seal, or all")
	seed := fs.Uint64("seed", 1, "workload seed (1 is the default, 2 is held out)")
	seconds := fs.Float64("seconds", 15, "measure at least this long per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from probes and a traced pass")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the traced pass as a Chrome trace_event file")
	recordTo := fs.String("record", "", "append each result, tagged with workload, seed and trace, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two --record files: --compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench --compare A.jsonl B.jsonl")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	specs := workloads
	if *name != "all" {
		spec, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	if *traceOut != "" && len(specs) != 1 {
		fmt.Fprintln(stderr, "--trace-out needs a single --workload")
		return 2
	}
	cfg := defaultConfig
	cfg.seconds = *seconds
	for _, spec := range specs {
		b := newBench(cfg, spec, *seed)
		var res result
		var err error
		if *trace == 1 {
			res, err = b.layers(*traceOut, stderr)
		} else {
			res = b.endToEnd()
		}
		if err == nil && *recordTo != "" {
			err = appendRecord(*recordTo, record{Workload: spec.name, Seed: *seed, Trace: *trace, Result: res})
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		b.report(stderr, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bench runs one workload's world stream.
type bench struct {
	cfg    config
	spec   workloadSpec
	seed   uint64
	worlds []*world
	// ref is each world's first result; every later pass must repeat its
	// simulated outcome exactly.
	ref    []worldResult
	failed []error
}

// pass is one run over every world.
type pass struct {
	res   []worldResult
	alloc uint64 // bytes the Go runtime allocated during the pass
	refNS int64  // host time of the refWork run before each world
}

func newBench(cfg config, spec workloadSpec, seed uint64) *bench {
	r := rand.New(rand.NewPCG(seed, 0x0BE7C4))
	ws := spec.gen(r, seed, cfg.worlds)
	return &bench{cfg: cfg, spec: spec, seed: seed, worlds: ws,
		ref: make([]worldResult, len(ws)), failed: make([]error, len(ws))}
}

// warmUp runs one world and discards it, so caches fill and lazy set-up
// in the runtime finishes before anything is timed.
func (b *bench) warmUp() {
	if len(b.worlds) > 0 {
		runWorld(b.worlds[0], nil, false)
	}
}

func (b *bench) fail(i int, err error) {
	if b.failed[i] == nil {
		b.failed[i] = fmt.Errorf("world %d (%s): %w", i, b.worlds[i].label, err)
	}
}

// runPass runs every world once and checks each against its first run.
func (b *bench) runPass(tr *tracer, metrics bool) pass {
	p := pass{res: make([]worldResult, len(b.worlds))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, w := range b.worlds {
		p.refNS += int64(refWork())
		r := runWorld(w, tr, metrics)
		p.res[i] = r
		b.check(i, r)
	}
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	return p
}

// check is the correctness gate of one world run.
func (b *bench) check(i int, r worldResult) {
	if r.err != nil {
		b.fail(i, r.err)
		return
	}
	ref := &b.ref[i]
	if ref.stats == nil {
		*ref = r
		if j := b.partner(i); j >= 0 && b.ref[j].stats != nil && b.ref[j].digest != r.digest {
			b.fail(i, errors.New("transparency: native and cloaked runs observed different app data"))
			b.fail(j, errors.New("transparency: native and cloaked runs observed different app data"))
		}
		return
	}
	if r.cycles != ref.cycles || r.digest != ref.digest || !maps.Equal(r.stats, ref.stats) {
		b.fail(i, fmt.Errorf("nondeterministic: %d cycles vs %d in the first pass", r.cycles, ref.cycles))
	}
}

// partner is the other world of i's native/cloaked pair, or -1.
func (b *bench) partner(i int) int {
	w := b.worlds[i]
	if w.pair < 0 {
		return -1
	}
	for j, o := range b.worlds {
		if j != i && o.pair == w.pair {
			return j
		}
	}
	return -1
}

func (b *bench) outcome(metrics map[string]metric) result {
	n := 0
	for _, err := range b.failed {
		if err != nil {
			n++
		}
	}
	return result{Correct: n == 0, Attempted: len(b.worlds), Failed: n, Metrics: metrics}
}

// endToEnd measures untraced passes until both the pass minimum and the
// time budget are met, and reports medians across passes of host times
// scaled to the reference host speed (see host.go).
func (b *bench) endToEnd() result {
	b.warmUp()
	var passes []pass
	start := time.Now()
	for len(passes) < b.cfg.minPasses ||
		(time.Since(start).Seconds() < b.cfg.seconds && len(passes) < b.cfg.maxPasses) {
		passes = append(passes, b.runPass(nil, false))
	}
	var setup, rate, alloc, heap []float64
	perWorld := make([][]float64, len(b.worlds))
	for _, p := range passes {
		var setupNS, runNS, cycles, maxHeap float64
		k := p.scale()
		for i, r := range p.res {
			setupNS += k * float64(r.setupNS)
			runNS += k * float64(r.worldNS-r.setupNS)
			cycles += float64(r.cycles)
			maxHeap = max(maxHeap, float64(r.heap))
			perWorld[i] = append(perWorld[i], k*float64(r.worldNS)/1e6)
		}
		setup = append(setup, setupNS/1e9)
		rate = append(rate, ratio(cycles*1e3, runNS))
		alloc = append(alloc, float64(p.alloc)/1e6)
		heap = append(heap, maxHeap/1e6)
	}
	worldMS := make([]float64, len(b.worlds))
	for i, v := range perWorld {
		worldMS[i] = median(v)
	}
	vals := map[string]float64{
		"setup_s":        median(setup),
		"sim_mcyc_per_s": median(rate),
		"world_ms_p50":   nearestRank(slices.Clone(worldMS), 0.5),
		"world_ms_p90":   nearestRank(worldMS, 0.9),
		"alloc_mb":       median(alloc),
		"live_heap_mb":   median(heap),
	}
	return b.outcome(emit(endToEnd, vals))
}

// emit builds the metrics object from the declared list, so exactly the
// declared metrics appear, each with its unit.
func emit(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: metric " + d.name + " not computed")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		panic("bench: computed a metric that is not declared")
	}
	return out
}

// report prints the result as a table, with the first failures.
func (b *bench) report(w io.Writer, res result) {
	fmt.Fprintf(w, "workload %s, seed %d: %d worlds attempted, %d failed\n", b.spec.name, b.seed, res.Attempted, res.Failed)
	shown := 0
	for _, err := range b.failed {
		if err != nil && shown < 5 {
			fmt.Fprintf(w, "  FAIL %v\n", err)
			shown++
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %16.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}

// sumStats adds the reference stats of every world.
func (b *bench) sumStats() map[sim.Counter]uint64 {
	out := make(map[sim.Counter]uint64)
	for _, r := range b.ref {
		for k, v := range r.stats {
			out[k] += v
		}
	}
	return out
}
