// Command overlint runs the module's domain-aware static analyzers:
//
//	determinism     — no host time, math/rand, multi-channel select, or
//	                  unscheduled goroutines inside the simulated machine
//	cloakboundary   — untrusted guestos code never touches machine memory,
//	                  cloaking secrets, or the vmm.DomainConn handle; outside
//	                  internal/vmm, domain hypercalls go through the typed
//	                  DomainConn handle, never the raw VMM.HC* forwarders
//	errnodiscipline — no raw errno literals, no discarded error/Errno results
//	iagoflow        — every kernel-returned value in the shim passes its
//	                  validator before any other use
//	cyclecharge    — exported memory-touching VMM/guestos functions charge
//	                  the sim cost model
//	plaintextflow   — interprocedural taint: cloaked plaintext (sealing keys,
//	                  decrypted pages) never reaches raw disk writes, trace
//	                  emission, or log output, even through helpers and
//	                  struct fields
//	hotpathalloc    — no heap allocations or map ranges on the forward
//	                  closure of the dispatch/charge/trace/fault fast paths
//	smpready        — no package-level var in mach/sim/vmm is written at
//	                  runtime: machine state lives on the World, where the
//	                  scheduler baton serializes it
//
// plaintextflow and hotpathalloc are built on a whole-module interprocedural
// dataflow engine (call graph + per-function summaries); see DESIGN.md.
//
// Usage:
//
//	go run ./cmd/overlint [-json] [-baseline file] [packages]
//
// Packages default to ./... . The exit status is 0 when the tree is clean,
// 1 when findings are reported, and 2 when loading or analysis fails.
// Findings can be suppressed, with a recorded justification, by
// "//overlint:allow <analyzer> -- <reason>" on or directly above the
// offending line. -baseline names a JSON findings file (as written by
// -json, regenerated by scripts/lint-baseline.sh): recorded findings are
// suppressed by (analyzer, file, message), ignoring line numbers, so a new
// analyzer can land before its backlog is fully triaged.
package main

import (
	"flag"
	"fmt"
	"os"

	"overshadow/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	baseline := flag.String("baseline", "", "JSON findings `file` whose entries are suppressed (matched by analyzer, file, and message)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: overlint [-json] [-baseline file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(os.Stdout, cwd, lint.Options{
		Patterns: patterns,
		JSON:     *jsonOut,
		Baseline: *baseline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "overlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
