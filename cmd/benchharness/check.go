package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// The -check mode is the CI bench-regression gate: it runs the -json
// suite fresh and compares its headline metrics against a committed
// baseline report (BENCH_*.json). The headlines are all machine-relative
// ratios (speedups and growth factors), so a baseline recorded on one
// machine remains meaningful on another; absolute ns/op numbers are
// reported but never gated on.

// checkThreshold is the relative regression that fails the gate: a
// headline may not degrade by more than 25% against the baseline.
const checkThreshold = 0.25

// checkSlack is an absolute allowance on top of the relative threshold:
// ratios near 1 (the flatness factors) jitter by run-to-run noise that a
// purely relative bound would misread as regression.
const checkSlack = 0.2

type headlineMetric struct {
	name string
	get  func(*benchReport) float64
	// higherBetter: speedups regress downward; flatness/growth factors
	// regress upward.
	higherBetter bool
}

var headlineMetrics = []headlineMetric{
	{"planner_selective_speedup_10k", func(r *benchReport) float64 { return r.PlannerSelectiveSpeedup10k }, true},
	{"index_at_query_speedup_10k", func(r *benchReport) float64 { return r.IndexAtQuerySpeedup10k }, true},
	{"index_at_snapshot_speedup_10k", func(r *benchReport) float64 { return r.IndexAtSnapshotSpeedup10k }, true},
	{"segment_at_query_flatness_10x", func(r *benchReport) float64 { return r.SegmentAtQueryFlatness10x }, false},
	{"segment_open_flatness_10x", func(r *benchReport) float64 { return r.SegmentOpenFlatness10x }, false},
	{"repl_ackone_poll_overhead", func(r *benchReport) float64 { return r.ReplAckOnePollOverhead }, false},
	{"incr_notify_speedup_10k", func(r *benchReport) float64 { return r.IncrNotifySpeedup10k }, true},
	{"incr_notify_flatness_10x", func(r *benchReport) float64 { return r.IncrNotifyFlatness10x }, false},
	{"exists_early_exit_ratio", func(r *benchReport) float64 { return r.ExistsEarlyExitRatio }, true},
}

func readReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCheck runs the benchmark suite fresh, writes its report to outPath
// (a temporary file when empty), and fails on any headline regression
// beyond the threshold.
func runCheck(baselinePath, outPath string) error {
	base, err := readReport(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if outPath == "" {
		dir, err := os.MkdirTemp("", "benchcheck")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		outPath = filepath.Join(dir, "bench.json")
	}
	if err := runJSON(outPath); err != nil {
		return err
	}
	fresh, err := readReport(outPath)
	if err != nil {
		return fmt.Errorf("fresh report: %w", err)
	}

	fmt.Printf("\nbench-check: fresh run vs %s (threshold %.0f%% + %.2g slack)\n",
		baselinePath, checkThreshold*100, checkSlack)
	fmt.Printf("  %-34s %10s %10s  %s\n", "headline", "baseline", "fresh", "verdict")
	regressions := 0
	for _, m := range headlineMetrics {
		b, f := m.get(base), m.get(fresh)
		if b == 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			// Metric absent from an older baseline: report, don't gate.
			fmt.Printf("  %-34s %10s %10.2f  skipped (not in baseline)\n", m.name, "-", f)
			continue
		}
		bad := false
		if m.higherBetter {
			bad = f < b*(1-checkThreshold)-checkSlack
		} else {
			bad = f > b*(1+checkThreshold)+checkSlack
		}
		verdict := "ok"
		if bad {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-34s %10.2f %10.2f  %s\n", m.name, b, f, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d headline metric(s) regressed beyond %.0f%%", regressions, checkThreshold*100)
	}
	fmt.Println("bench-check: all headline metrics within threshold")
	return nil
}
