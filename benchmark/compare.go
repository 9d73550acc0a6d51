package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReport loads the end-to-end runs of a --report file, grouped by
// workload then metric.
func readReport(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method (Python's statistics.quantiles(v, n=4)); with fewer
// than two values all three are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

// verdict classifies B against A for one metric: "better" or "worse" when
// the medians differ by more than the bound, "same" when they do not, and
// "unresolved" when either side's own spread (interquartile range over
// median) exceeds the bound, so the difference cannot be told from noise.
func verdict(m endToEndMetric, a, b []float64) (string, float64, float64, float64, float64) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
	change := ratio(b2-a2, a2)
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spreadA > m.Bound || spreadB > m.Bound:
		return "unresolved", a2, b2, spreadA, spreadB
	case worse > m.Bound:
		return "worse", a2, b2, spreadA, spreadB
	case worse < -m.Bound:
		return "better", a2, b2, spreadA, spreadB
	}
	return "same", a2, b2, spreadA, spreadB
}

// compareReports prints, per workload and end-to-end metric, how report B
// stands against report A. Every ratio is given with its base.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-18s %-10s %12s %12s %9s %6s %8s %8s %3s %3s\n",
		"workload", "metric", "verdict", "median A", "median B", "B/A-1", "bound", "spread A", "spread B", "nA", "nB")
	for _, wl := range workloads {
		for _, m := range endToEndMetrics {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, ma, mb, sa, sb := verdict(m, va, vb)
			fmt.Fprintf(w, "%-15s %-18s %-10s %12.4f %12.4f %+8.1f%% %5.0f%% %7.1f%% %7.1f%% %3d %3d\n",
				wl.Name, m.Name, v, ma, mb, 100*ratio(mb-ma, ma), 100*m.Bound, 100*sa, 100*sb, len(va), len(vb))
		}
	}
	return nil
}
