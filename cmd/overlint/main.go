// Command overlint runs the module's domain-aware static analyzers:
//
//	determinism     — no host time, math/rand, multi-channel select, or
//	                  unscheduled goroutines inside the simulated machine
//	cloakboundary   — untrusted guestos code never touches machine memory,
//	                  cloaking secrets, or the vmm.DomainConn handle
//	errnodiscipline — no raw errno literals, no discarded error/Errno results
//	iagoflow        — every kernel-returned value in the shim passes its
//	                  validator before any other use
//	cyclecharge     — exported memory-touching VMM/guestos functions charge
//	                  the sim cost model
//	smpready        — no package-level var in mach/sim/vmm is written at
//	                  runtime: machine state lives on the World, where the
//	                  scheduler baton serializes it
//
// cyclecharge and smpready share one whole-module call graph, built once per
// run; see DESIGN.md.
//
// Usage:
//
//	go run ./cmd/overlint [packages]
//
// Packages default to ./... . The exit status is 0 when the tree is clean,
// 1 when findings are reported, and 2 when loading or analysis fails.
// Findings can be suppressed, with a recorded justification, by
// "//overlint:allow <analyzer> -- <reason>" on or directly above the
// offending line; a directive without a reason, naming no analyzer of the
// set above, or suppressing nothing, is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"overshadow/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: overlint [packages]\n")
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
	findings, err := lint.Run(os.Stdout, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "overlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
