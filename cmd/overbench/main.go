// Command overbench runs the Overshadow reproduction experiments (E1–E17
// in DESIGN.md) and prints their tables.
//
// Everything overbench writes (tables, JSON, traces, reports) is simulated
// and so a pure function of its flags: it never reads the host clock.
// Experiments run on a bounded worker pool: every independent
// benchmark world is one job, and results are collected in declaration
// order, so the output is byte-identical for any -shards value. Host cost
// is measured elsewhere: per experiment by the root BenchmarkExperiment,
// end to end and per layer by the bench/ module.
//
// Usage:
//
//	overbench                      # run every experiment at quick scale
//	overbench -full                # full-scale parameters (slower)
//	overbench -e E1,E8             # a subset by ID
//	overbench -seed 7              # change the simulation seed
//	overbench -vcpus 4             # run every machine with 4 virtual CPUs
//	overbench -shards 4            # bound worker-pool width (default GOMAXPROCS)
//	overbench -list                # list experiments
//	overbench -json                # emit tables as JSON
//	overbench -e E2 -trace t.json  # also write a Perfetto-loadable trace
//	overbench -report r.json       # also write the run report (see overprof)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"overshadow/internal/harness"
	"overshadow/internal/obs"
)

func main() {
	full := flag.Bool("full", false, "run full-scale parameters (slower)")
	only := flag.String("e", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	vcpus := flag.Int("vcpus", 1, "virtual CPUs per simulated machine (1 = the pre-SMP machine, byte-identical output)")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "worker-pool width (1 = serial; results are identical for any value)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "emit JSON instead of formatted tables")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON (load in Perfetto) to `file`")
	reportOut := flag.String("report", "", "write the run report (cycles by task, phase and call chain, plus latency histograms) to `file`")
	flag.Parse()

	if *list {
		for _, e := range harness.Registry() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	if *vcpus < 1 {
		fmt.Fprintf(os.Stderr, "overbench: -vcpus must be >= 1 (got %d)\n", *vcpus)
		os.Exit(2)
	}
	opts := harness.Options{Quick: !*full, Seed: *seed, VCPUs: *vcpus}
	if *traceOut != "" || *reportOut != "" {
		opts.Observe = &harness.Observer{}
		if *traceOut != "" {
			opts.Observe.TraceCap = 1 << 18
		}
	}
	selected := harness.Registry()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "overbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	results := harness.RunAll(opts, selected, *shards)

	if *jsonOut {
		out := make([]string, 0, len(results))
		for _, r := range results {
			out = append(out, r.Table.JSON())
		}
		fmt.Printf("[\n%s\n]\n", strings.Join(out, ",\n"))
	} else {
		mode := "quick"
		if *full {
			mode = "full"
		}
		fmt.Printf("overshadow experiment suite (%s scale, seed %d)\n\n", mode, *seed)
		for _, r := range results {
			fmt.Println(r.Table)
			fmt.Printf("  (sim cycles %d)\n\n", r.SimCycles)
		}
	}

	if opts.Observe != nil {
		writeObservations(opts.Observe, *traceOut, *reportOut)
	}
}

// writeObservations exports the collected spans and the run report to the
// requested files.
func writeObservations(ob *harness.Observer, tracePath, reportPath string) {
	if tracePath != "" {
		spans, ring := ob.Trace()
		writeFile(tracePath, func(w io.Writer) error { return obs.WriteChromeTrace(w, spans, ring) })
		fmt.Fprintf(os.Stderr, "overbench: wrote %d spans to %s (%d emitted, %d dropped)\n",
			len(spans), tracePath, ring.Total, ring.Dropped)
	}
	if reportPath != "" {
		r := ob.Report()
		writeFile(reportPath, func(w io.Writer) error { return obs.WriteReport(w, r) })
		fmt.Fprintf(os.Stderr, "overbench: wrote report (%d buckets, %d stacks, %d histograms) to %s\n",
			len(r.Buckets), len(r.Folded), len(r.Histograms), reportPath)
	}
}

// writeFile creates path, fills it with write, and closes it; any error is
// fatal.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overbench: %v\n", err)
	os.Exit(1)
}
