package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// printManifest writes BENCHMARK.json from the tables in this package.
func printManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.name, x.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction: positive is worse, negative better.
func worsening(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// valuesOf gathers one metric's value from every untraced run of a workload.
func valuesOf(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(runs []*runResult, workload string) float64 {
	var failed, attempted int
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// checkAA compares the two passes of -aa: the same code, so any difference
// is noise, and a difference past a metric's own bound means the bound (or
// the window) is too tight to tell a regression from it. The spread is
// printed for every metric so that shows rather than being silently widened.
func checkAA(w io.Writer, runs []*runResult) error {
	var errs []error
	fmt.Fprintf(w, "\nA/A: two passes of the same code\n%-16s %-20s %12s %12s %8s %6s\n",
		"workload", "metric", "first", "second", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := valuesOf(runs, wl.name, d.Name)
			if len(v) != 2 {
				continue
			}
			spread := math.Abs(v[1]-v[0]) / median(v)
			verdict := ""
			if math.Abs(worsening(d, v[0], v[1])) > d.Bound {
				verdict = "  PAST BOUND"
				errs = append(errs, fmt.Errorf("%s %s: %.6g vs %.6g differ by more than %.0f%%", wl.name, d.Name, v[0], v[1], d.Bound*100))
			}
			fmt.Fprintf(w, "%-16s %-20s %12.6g %12.6g %7.1f%% %5.0f%%%s\n",
				wl.name, d.Name, v[0], v[1], spread*100, d.Bound*100, verdict)
		}
		if fs := failedShare(runs, wl.name); fs > 0 {
			errs = append(errs, fmt.Errorf("%s: failed share %.4f", wl.name, fs))
		}
	}
	return errors.Join(errs...)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// verdict classifies one metric's change between two sets of runs. A metric
// whose own run-to-run spread (on either side) is wider than its bound is
// unresolved: the benchmark cannot tell that change from noise.
func verdict(d metricDecl, old, cur []float64) (string, float64, float64) {
	worse := worsening(d, median(old), median(cur))
	spread := math.Max(quartileSpread(old), quartileSpread(cur)) // NaN with single runs
	switch {
	case spread > d.Bound:
		return "unresolved", worse, spread
	case worse > d.Bound:
		return "regressed", worse, spread
	case worse < -d.Bound:
		return "improved", worse, spread
	}
	return "within bound", worse, spread
}

// compareFiles reports, per workload row, each end-to-end metric of new
// against old. Every ratio is printed with its base. It fails on a
// regression or a higher failed share.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (commit %s)\nnew: %s (commit %s)\n", oldPath, old.Meta.Commit, newPath, cur.Meta.Commit)
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %9s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	var errs []error
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := valuesOf(old.Runs, wl.name, d.Name), valuesOf(cur.Runs, wl.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse, spread := verdict(d, a, b)
			spreadText := "n/a"
			if !math.IsNaN(spread) {
				spreadText = fmt.Sprintf("%.1f%%", spread*100)
			}
			fmt.Fprintf(w, "%-16s %-20s %12.6g %12.6g %9.4f %8s %5.0f%%  %s\n",
				wl.name, d.Name, median(a), median(b), median(b)/median(a), spreadText, d.Bound*100, v)
			if v == "regressed" {
				errs = append(errs, fmt.Errorf("%s %s regressed by %.1f%% of %.6g", wl.name, d.Name, worse*100, median(a)))
			}
		}
		if fa, fb := failedShare(old.Runs, wl.name), failedShare(cur.Runs, wl.name); fb > fa {
			fmt.Fprintf(w, "%-16s %-20s %12.6g %12.6g  higher failed share\n", wl.name, "failed_share", fa, fb)
			errs = append(errs, fmt.Errorf("%s: failed share rose from %.6g to %.6g", wl.name, fa, fb))
		}
	}
	return errors.Join(errs...)
}
