package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// verdict of one workload × metric row.
const (
	same       = "same"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved" // run-to-run spread wider than the bound
)

// row is one line of `compare`'s table.
type row struct {
	workload, metric, unit string
	a, b                   float64 // medians over each file's untraced runs
	spread                 float64 // the wider of the two sets' IQR / median
	bound                  float64
	verdict                string
}

// judge compares two sets of one metric. The ratio is b over a, so a is
// the base; worse means b's median is on the wrong side of a's by more
// than the bound.
func judge(ms metricSpec, a, b []float64) row {
	r := row{metric: ms.Name, unit: ms.Unit, a: median(a), b: median(b), bound: ms.Bound,
		spread: math.Max(iqrSpread(a), iqrSpread(b))}
	change := (r.b - r.a) / r.a // > 0: b is larger
	if ms.Better == "higher" {
		change = -change
	}
	switch {
	case r.spread > ms.Bound:
		r.verdict = unresolved
	case change > ms.Bound:
		r.verdict = worse
	case change < -ms.Bound:
		r.verdict = better
	default:
		r.verdict = same
	}
	return r
}

// valuesOf collects one metric over a file's untraced runs of a
// workload: end-to-end numbers never come from a traced run.
func valuesOf(f *resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, run := range f.Runs {
		if run.Workload != workload || run.Header.Trace {
			continue
		}
		if v, ok := run.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles builds the table: one row per workload × end-to-end
// metric present in both files, plus the counts that must stay zero.
func compareFiles(spec *benchSpec, a, b *resultsFile) []row {
	var rows []row
	for _, w := range spec.Workloads {
		specs := append([]metricSpec(nil), spec.EndToEnd...)
		for _, u := range ungated {
			if u.workload == "" || u.workload == w.Name {
				specs = append(specs, u.metricSpec)
			}
		}
		for _, ms := range specs {
			va, vb := valuesOf(a, w.Name, ms.Name), valuesOf(b, w.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := judge(ms, va, vb)
			r.workload = w.Name
			rows = append(rows, r)
		}
		for _, name := range mustBeZero {
			va, vb := valuesOf(a, w.Name, name), valuesOf(b, w.Name, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: w.Name, metric: name, unit: spec.unitOf(name), a: maxOf(va), b: maxOf(vb), verdict: same}
			if r.b > 0 {
				r.verdict = worse
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func maxOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		m = math.Max(m, v)
	}
	return m
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict")
	for _, r := range rows {
		ratio := "-" // a count that must stay zero has no base
		if r.a != 0 {
			ratio = fmt.Sprintf("%.4f", r.b/r.a)
		}
		fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %8s %7.1f%% %7.1f%%  %s\n",
			r.workload, r.metric+" ["+r.unit+"]", r.a, r.b, ratio, 100*r.spread, 100*r.bound, r.verdict)
	}
}

// compareMain is `legion-e2e compare a.json b.json`; it exits non-zero
// when any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare a.json b.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "legion-e2e:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "legion-e2e:", err)
		return 2
	}
	var files [2]*resultsFile
	for i, path := range args {
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "legion-e2e:", err)
			return 2
		}
	}
	rows := compareFiles(spec, files[0], files[1])
	printRows(os.Stdout, rows)
	for _, r := range rows {
		if r.verdict == worse {
			return 1
		}
	}
	return 0
}
