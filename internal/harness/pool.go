package harness

import (
	"sync"

	"overshadow/internal/sim"
)

// This file is the sharded execution engine. Every experiment decomposes
// into independent world-building jobs (each sim.World owns its clock, RNG,
// tracer, and metrics store, so per-world determinism is free); jobs run on
// a bounded worker pool, and results are collected in declaration order.
// Simulated cycles — and therefore every table, trace, and metrics export —
// are byte-identical for any shard count, including -shards 1. Sharding
// changes host wall time only.

// pool bounds how many benchmark jobs run concurrently.
type pool struct{ sem chan struct{} }

func newPool(shards int) *pool {
	if shards < 1 {
		shards = 1
	}
	return &pool{sem: make(chan struct{}, shards)}
}

// future is the handle submit returns; wait blocks until the job finishes.
// Each future is waited on exactly once, from the experiment goroutine that
// submitted it.
type future[T any] chan T

func (f future[T]) wait() T { return <-f }

// submit schedules one world-building job. Jobs are numbered in submission
// order on the experiment goroutine, so observer slots sort back into
// declaration order no matter which worker finishes first. With no pool
// (direct RunEn calls, as the shape tests do) the job runs inline and the
// key stays zero — the old serial semantics exactly.
func submit[T any](o Options, fn func(Options) T) future[T] {
	if o.obsSeq != nil {
		o.obsKey = o.obsBase | *o.obsSeq
		*o.obsSeq++
	}
	f := make(future[T], 1)
	if o.pool == nil {
		f <- fn(o)
		return f
	}
	p := o.pool
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		f <- fn(o)
	}()
	return f
}

// sweep is how experiments run their worlds: one run per point, all
// submitted in point order on the experiment goroutine (so observer keys
// and the world tally match the order rows are declared), then collected in
// the same order. Results line up with points whatever order the jobs
// finish in.
func sweep[P, T any](opts Options, points []P, run func(Options, P) T) []T {
	futs := make([]future[T], len(points))
	for i, p := range points {
		futs[i] = submit(opts, func(o Options) T { return run(o, p) })
	}
	out := make([]T, len(points))
	for i, f := range futs {
		out[i] = f.wait()
	}
	return out
}

// tally records every world an experiment builds so RunAll can report its
// simulated-cycle total without the experiments threading sums around.
type tally struct {
	mu     sync.Mutex
	worlds []*sim.World
}

func (t *tally) add(w *sim.World) {
	t.mu.Lock()
	t.worlds = append(t.worlds, w)
	t.mu.Unlock()
}

// sum totals the final clocks. Call only after the experiment's Run has
// returned (every job joined), so the clocks are quiescent.
func (t *tally) sum() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total uint64
	for _, w := range t.worlds {
		total += uint64(w.Now())
	}
	return total
}

// Result is one experiment's outcome under RunAll: the rendered table plus
// the simulated cycles of every world it built (identical for any shard
// count).
type Result struct {
	Table     *Table
	SimCycles uint64
}

// RunAll executes the given experiments over a worker pool of the given
// width and returns results in declaration order. Each experiment gets a
// goroutine that only composes tables from job futures; the actual world
// construction runs as pool jobs, so total concurrency is bounded by shards
// regardless of how many experiments are in flight.
func RunAll(opts Options, exps []Experiment, shards int) []Result {
	p := newPool(shards)
	out := make([]Result, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		o := opts
		o.pool = p
		o.obsBase = (uint64(i) + 1) << 32
		o.obsSeq = new(uint64)
		o.tally = &tally{}
		wg.Add(1)
		go func(i int, e Experiment, o Options) {
			defer wg.Done()
			tab := e.Run(o)
			out[i] = Result{Table: tab, SimCycles: o.tally.sum()}
		}(i, e, o)
	}
	wg.Wait()
	return out
}
