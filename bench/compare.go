package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one end-to-end metric × workload of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   float64
	Worse                  float64 // share of A by which B is worse (negative: better)
	Spread                 float64 // wider of the two runs' IQR / median
	Bound                  float64
	Verdict                string
}

// judge decides one row: unresolved when the run-to-run spread is wider than
// the bound (the data cannot tell), regressed when B's median is worse than
// A's by more than the bound, ok otherwise.
func judge(def metricDef, a, b seriesResult) compareRow {
	row := compareRow{Metric: def.Name, Unit: def.Unit, A: a.Median, B: b.Median, Bound: def.Bound}
	if a.Median != 0 {
		row.Worse = (b.Median - a.Median) / a.Median
		if def.Better == "higher" {
			row.Worse = -row.Worse
		}
	}
	for _, s := range []seriesResult{a, b} {
		if s.Median != 0 {
			if spread := (s.Q3 - s.Q1) / s.Median; spread > row.Spread {
				row.Spread = spread
			}
		}
	}
	switch {
	case row.Spread > def.Bound:
		row.Verdict = verdictUnresolved
	case row.Worse > def.Bound:
		row.Verdict = verdictRegressed
	default:
		row.Verdict = verdictOK
	}
	return row
}

// compareResults judges every end-to-end metric × workload of b against a.
func compareResults(a, b *resultFile) []compareRow {
	var rows []compareRow
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range endToEnd {
			row := judge(def, wa.EndToEnd[def.Name], wb.EndToEnd[def.Name])
			row.Workload = name
			rows = append(rows, row)
		}
	}
	return rows
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints the comparison of two result files and returns the
// exit code: 1 when any row regressed (or a file is unreadable), else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if a.Meta.Clients != b.Meta.Clients || a.Meta.Seconds != b.Meta.Seconds {
		fmt.Fprintf(w, "warning: runs differ in shape (clients %d vs %d, seconds %g vs %g): not comparable\n",
			a.Meta.Clients, b.Meta.Clients, a.Meta.Seconds, b.Meta.Seconds)
	}
	fmt.Fprintf(w, "A = %s (%d runs)   B = %s (%d runs)\n", pathA, a.Meta.Runs, pathB, b.Meta.Runs)
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %-6s %9s %9s %8s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "B worse", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, r := range compareResults(a, b) {
		counts[r.Verdict]++
		fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %-6s %+8.1f%% %8.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, r.Unit, 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
