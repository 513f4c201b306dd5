// Command overtrace summarizes a Chrome trace_event JSON file produced by
// overbench -trace (or any tool using the internal/obs exporter): total
// span counts and cycles per span kind, per-track activity, and the longest
// individual spans. The raw file loads directly into Perfetto or
// chrome://tracing; overtrace is the terminal-side view of the same data.
// Latency percentiles come from the run report (overbench -report, rendered
// by overprof), whose histograms cover every span, not just the ones the
// ring retained.
//
// Usage:
//
//	overtrace trace.json
//	overtrace -top 20 trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"overshadow/internal/obs"
)

func main() {
	top := flag.Int("top", 10, "number of longest spans to list")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: overtrace [-top N] trace.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	trace, err := obs.ParseChromeTrace(f)
	if err != nil {
		fatal(fmt.Errorf("parsing %s: %w", flag.Arg(0), err))
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	summarize(trace, *top)
}

// rollup accumulates span statistics under one label (a kind or a track).
type rollup struct {
	label  string
	spans  int
	cycles uint64
}

func summarize(trace *obs.ChromeTrace, top int) {
	trackNames := map[int]string{}
	byKind := map[string]*rollup{}
	byTrack := map[int]*rollup{}
	var spans []obs.ChromeEvent
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" && ev.Args != nil {
				trackNames[ev.Tid] = ev.Args.Name
			}
			continue
		case "X", "i":
			spans = append(spans, ev)
		default:
			continue
		}
		dur := uint64(0)
		if ev.Dur != nil {
			dur = *ev.Dur
		}
		k := byKind[ev.Cat]
		if k == nil {
			k = &rollup{label: ev.Cat}
			byKind[ev.Cat] = k
		}
		k.spans++
		k.cycles += dur
		tr := byTrack[ev.Tid]
		if tr == nil {
			tr = &rollup{}
			byTrack[ev.Tid] = tr
		}
		tr.spans++
		tr.cycles += dur
	}

	fmt.Printf("trace: %d events, %d spans on %d tracks (clock domain %s)\n",
		len(trace.TraceEvents), len(spans), len(byTrack), trace.OtherData.ClockDomain)
	fmt.Printf("ring: %d spans emitted, %d dropped", trace.OtherData.TotalSpans, trace.OtherData.DroppedSpans)
	if trace.OtherData.RingWrapped {
		fmt.Printf("  (ring wrapped: the trace is truncated)")
	}
	fmt.Println()

	fmt.Println("\nby span kind:")
	for _, r := range sortRollups(byKind) {
		fmt.Printf("  %-14s %8d spans %14d cycles\n", r.label, r.spans, r.cycles)
	}

	fmt.Println("\nby track:")
	for tid, r := range byTrack {
		name := trackNames[tid]
		if name == "" {
			name = fmt.Sprintf("track %d", tid)
		}
		r.label = fmt.Sprintf("%s [tid %d]", name, tid)
	}
	for _, r := range sortRollups(byTrack) {
		fmt.Printf("  %-28s %8d spans %14d cycles\n", r.label, r.spans, r.cycles)
	}

	// Longest spans: X events only, by duration, deterministic tiebreaks.
	sort.SliceStable(spans, func(i, j int) bool {
		di, dj := uint64(0), uint64(0)
		if spans[i].Dur != nil {
			di = *spans[i].Dur
		}
		if spans[j].Dur != nil {
			dj = *spans[j].Dur
		}
		if di != dj {
			return di > dj
		}
		return spans[i].Ts < spans[j].Ts
	})
	if top > len(spans) {
		top = len(spans)
	}
	fmt.Printf("\nlongest %d spans:\n", top)
	for _, ev := range spans[:top] {
		dur := uint64(0)
		if ev.Dur != nil {
			dur = *ev.Dur
		}
		fmt.Printf("  %12d cycles  %-12s %-16s @%-12d tid %d\n", dur, ev.Cat, ev.Name, ev.Ts, ev.Tid)
	}
}

// sortRollups orders rollups by cycles descending, then spans descending,
// then label, so output is deterministic.
func sortRollups[K comparable](m map[K]*rollup) []*rollup {
	out := make([]*rollup, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cycles != out[j].cycles {
			return out[i].cycles > out[j].cycles
		}
		if out[i].spans != out[j].spans {
			return out[i].spans > out[j].spans
		}
		return out[i].label < out[j].label
	})
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overtrace: %v\n", err)
	os.Exit(1)
}
