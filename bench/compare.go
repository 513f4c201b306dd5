package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// declared is the part of BENCHMARK.json the comparison applies.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	d := slices.Clone(v)
	slices.Sort(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(slices.Clone(v)))
}

// readRecords loads the untraced results of a --record file by workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// runCompare applies each end-to-end metric's bound to every workload
// present in both record files. A pair is worse when B's median is worse
// than A's by more than the bound, improved when better by more than the
// bound, unresolved when either side's run-to-run spread exceeds the bound
// (unless every run of B beats every run of A, or the reverse), and
// unchanged otherwise. It exits 1 when any pair is worse.
func runCompare(benchmarkJSON, pathA, pathB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(benchmarkJSON)
	var decl declared
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	var a, b map[string][]result
	if err == nil {
		a, err = readRecords(pathA)
	}
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-8s %-16s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range decl.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(slices.Clone(va)), median(slices.Clone(vb))
			change := ratio(mb-ma, ma) // positive: B reads higher
			if m.Better == "higher" {
				change = -change
			}
			sp := max(spread(va), spread(vb))
			verdict := "unchanged"
			switch {
			case sp > m.Bound && allBetter(vb, va, m.Better):
				verdict = "improved"
			case sp > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
			case change < -m.Bound:
				verdict = "improved"
			}
			if verdict == "worse" {
				worse = true
			}
			fmt.Fprintf(stdout, "%-8s %-16s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, m.Name, ma, mb, 100*change, 100*sp, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// allBetter reports whether every value of x beats every value of y.
func allBetter(x, y []float64, better string) bool {
	if better == "higher" {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}
