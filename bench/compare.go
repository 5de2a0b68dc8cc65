package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdicts of one (metric, workload) row.
const (
	vOK         = "ok"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to two sets of values:
// unresolved when either set's run-to-run spread (interquartile distance
// over the median) is wider than the bound, worse when b's median is
// worse than a's by more than the bound.
func judge(m metricSpec, a, b []float64) (verdict string, change, widest float64) {
	ma, mb := median(a), median(b)
	widest = max(spread(a), spread(b))
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if m.Better == higher {
		worse = -change
	}
	switch {
	case widest > m.Bound:
		return vUnresolved, change, widest
	case worse > m.Bound:
		return vWorse, change, widest
	}
	return vOK, change, widest
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's values over a file's runs of a workload.
func (f *resultsFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			v = append(v, mv.Value)
		}
	}
	return v
}

// compareFiles prints one row per (metric, workload) and returns the
// exit code: 1 when any row is worse or unresolved.
func compareFiles(pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Host.Cores != b.Host.Cores {
		fmt.Printf("note: %s ran on %d cores, %s on %d: the rows are not comparable\n", pathA, a.Host.Cores, pathB, b.Host.Cores)
	}
	fmt.Printf("%-18s %-14s %12s %12s %8s %8s %6s  %s\n", "metric", "workload", "a (median)", "b (median)", "change", "spread", "bound", "verdict")
	bad := 0
	for _, m := range endToEnd {
		for _, w := range workloads {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change, widest := judge(m, va, vb)
			if verdict != vOK {
				bad++
			}
			fmt.Printf("%-18s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				m.Name, w.Name, median(va), median(vb), 100*change, 100*widest, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	if bad > 0 {
		fmt.Printf("%d rows worse or unresolved\n", bad)
		return 1
	}
	fmt.Println("no row worse, none unresolved")
	return 0
}
