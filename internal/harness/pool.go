package harness

import (
	"sort"
	"sync"

	"overshadow/internal/sim"
)

// This file is the sharded execution engine. Every experiment decomposes
// into independent world-building jobs (each sim.World owns its clock, RNG,
// tracer, and metrics store, so per-world determinism is free); jobs run on
// a bounded worker pool, and results are collected in declaration order.
// Simulated cycles — and therefore every table, trace, and report — are
// byte-identical for any shard count, including -shards 1. Sharding
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
// order on the experiment goroutine, so the run's world list sorts back into
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
// submitted in point order on the experiment goroutine (so world-list keys
// match the order rows are declared), then collected in
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

// worldList is one RunAll call's list of every world its experiments
// build, each under the key of the job that built it. Jobs add to it
// concurrently; RunAll reads it once every job has joined.
type worldList struct {
	mu     sync.Mutex
	worlds []keyedWorld
}

type keyedWorld struct {
	key   uint64
	world *sim.World
}

func (l *worldList) add(key uint64, w *sim.World) {
	l.mu.Lock()
	l.worlds = append(l.worlds, keyedWorld{key, w})
	l.mu.Unlock()
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
// regardless of how many experiments are in flight. Once every job has
// joined, the run's worlds are put in key order (stable, so one job's
// worlds keep their build order): each experiment's SimCycles sums its
// worlds' final clocks, and opts.Observe, if set, exports from that list.
func RunAll(opts Options, exps []Experiment, shards int) []Result {
	p := newPool(shards)
	run := &worldList{}
	out := make([]Result, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		o := opts
		o.pool = p
		o.obsBase = (uint64(i) + 1) << 32
		o.obsSeq = new(uint64)
		o.worlds = run
		wg.Add(1)
		go func(i int, e Experiment, o Options) {
			defer wg.Done()
			out[i].Table = e.Run(o)
		}(i, e, o)
	}
	wg.Wait()
	sort.SliceStable(run.worlds, func(i, j int) bool { return run.worlds[i].key < run.worlds[j].key })
	ordered := make([]*sim.World, len(run.worlds))
	for i, kw := range run.worlds {
		out[kw.key>>32-1].SimCycles += uint64(kw.world.Now())
		ordered[i] = kw.world
	}
	if opts.Observe != nil {
		opts.Observe.worlds = ordered
	}
	return out
}
