// Command overprof renders the sim-time profile in a run report produced by
// overbench -report (schema overshadow-report/v1): a top-N self/total
// cycles table, per-(kind, domain) latency percentile tables, and — with
// -folded — the raw folded stacks, directly consumable by standard
// flame-graph tooling (e.g. flamegraph.pl or speedscope).
//
// All numbers are simulated cycles attributed by the deterministic profiler
// in internal/sim; output for a given artifact is byte-identical across
// hosts and runs.
//
// Usage:
//
//	overprof report.json             # top table + latency percentiles
//	overprof -top 30 report.json     # widen the top table
//	overprof -folded report.json     # folded stacks for flame-graph tools
package main

import (
	"flag"
	"fmt"
	"os"

	"overshadow/internal/obs"
)

func main() {
	top := flag.Int("top", 15, "number of frames in the top table")
	folded := flag.Bool("folded", false, "print folded stacks (flame-graph collapsed format) and exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: overprof [-top N] [-folded] report.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	doc, err := obs.ParseReport(data)
	if err != nil {
		fatal(err)
	}
	if *folded {
		if err := obs.WriteFolded(os.Stdout, doc); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("profile: %d cycles over %d stacks, %d span histograms\n\n",
		doc.TotalCycles, len(doc.Folded), len(doc.Histograms))
	fmt.Printf("top %d frames by self cycles:\n", *top)
	if err := obs.WriteTopN(os.Stdout, doc, *top); err != nil {
		fatal(err)
	}
	fmt.Println("\nspan latency (simulated cycles):")
	if err := obs.WriteHistTable(os.Stdout, doc.Histograms, doc.DroppedSpans); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overprof: %v\n", err)
	os.Exit(1)
}
