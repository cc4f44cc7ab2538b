package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// exactCounts are the per-layer metrics that are counts made by the
// program on seeded inputs: for one (workload, seed) they must be identical
// on both sides of any change that only makes the simulator faster.
var exactCounts = []string{
	"core.events", "core.tasks_completed", "core.replicas_started", "core.replicas_killed",
	"core.replica_failures", "checkpoint.saves", "checkpoint.retrieves",
}

// compareFiles prints, per workload × end-to-end metric, the base median,
// the new median, their ratio and the bound from BENCHMARK.json, with a
// verdict: worse when the new median is worse than the base by more than
// the bound, unresolved when the run-to-run spread of either side is wider
// than the bound (unless every new run beats every base run), ok otherwise.
// Result digests and exact counts of runs that share workload and seed
// must be identical. It returns 1 on any worse or mismatch, else 0.
func compareFiles(spec *benchSpec, basePath, nextPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err == nil {
		var next []runResult
		if next, err = readResults(nextPath); err == nil {
			return compare(spec, base, next, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

func compare(spec *benchSpec, base, next []runResult, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "base", "new", "new/base", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := series(base, wl.Name, m.Name), series(next, wl.Name, m.Name)
			if len(b.values) == 0 || len(n.values) == 0 {
				continue
			}
			bm, nm := median(b.values), median(n.values)
			change := nm/bm - 1 // positive = worse, after the flip below
			better := func(x, y float64) bool { return x < y }
			if m.Better == "higher" {
				change = 1 - nm/bm
				better = func(x, y float64) bool { return x > y }
			}
			spread := math.Max(b.spread(), n.spread())
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter(n.values, b.values, better):
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %9.4f %6.0f%% %7.1f%%  %s\n",
				wl.Name, m.Name, bm, nm, nm/bm, 100*m.Bound, 100*spread, verdict)
		}
	}
	for _, b := range base {
		for _, n := range next {
			if b.Workload != n.Workload || b.Seed != n.Seed || b.Trace != n.Trace || b.Sizes != n.Sizes {
				continue
			}
			if fmt.Sprint(b.Digests) != fmt.Sprint(n.Digests) {
				fmt.Fprintf(w, "%-14s seed %d: result digests differ\n", b.Workload, b.Seed)
				code = 1
			}
			if n.Failed != 0 || !n.Correct {
				fmt.Fprintf(w, "%-14s seed %d: %d failed operations, correct=%t\n", n.Workload, n.Seed, n.Failed, n.Correct)
				code = 1
			}
			for _, name := range exactCounts {
				if bv, nv := b.Metrics[name].Value, n.Metrics[name].Value; b.Trace && bv != nv {
					fmt.Fprintf(w, "%-14s seed %d: exact count %s differs: %.0f, %.0f\n", b.Workload, b.Seed, name, bv, nv)
					code = 1
				}
			}
		}
	}
	return code
}

// samples are one side's values of one metric on one workload: one value
// per run, plus the per-segment raw values of all runs for the spread when
// a single run is all there is.
type samples struct{ values, segments []float64 }

func series(results []runResult, workload, metric string) samples {
	var s samples
	for _, r := range results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			s.values = append(s.values, v.Value)
			s.segments = append(s.segments, v.Segments...)
		}
	}
	return s
}

// spread is the distance between the first and third quartile as a share of
// the median — over runs when there are several, else over the segments.
func (s samples) spread() float64 {
	xs := s.values
	if len(xs) < 2 {
		xs = s.segments
	}
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// quartiles are the first and third of Python's
// statistics.quantiles(xs, n=4), the method the benchmark's driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func allBetter(next, base []float64, better func(x, y float64) bool) bool {
	for _, n := range next {
		for _, b := range base {
			if !better(n, b) {
				return false
			}
		}
	}
	return true
}
