package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRuns reads the run records in the saved standard output of
// benchmark runs: the "record: " lines of a file, or of every file in a
// directory.
func loadRuns(path string) ([]*runRecord, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		es, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range es {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []*runRecord
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rec, ok := strings.CutPrefix(line, "record: "); ok {
				var r runRecord
				if err := json.Unmarshal([]byte(rec), &r); err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				out = append(out, &r)
			}
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the
// "exclusive" method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// position j*(n+1)/4, 1-based, interpolated and clamped
		m := n + 1
		pos := j * m / 4
		delta := float64(j*m%4) / 4
		switch {
		case pos < 1:
			return s[0]
		case pos >= n:
			return s[n-1]
		}
		return s[pos-1] + delta*(s[pos]-s[pos-1])
	}
	return at(1), median(s), at(3)
}

// compare prints, per workload and end-to-end metric, each side's
// median and quartiles and whether B differs from A beyond the
// metric's bound. A metric whose run-to-run spread (interquartile range
// over median) exceeds its bound on either side is unresolved.
func compare(w io.Writer, bs *benchSpec, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(rs []*runRecord, wl, m string) []float64 {
		var vs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[m]; ok && r.Workload == wl && !r.Trace && r.Valid {
				vs = append(vs, v)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-15s %-16s %-30s %-30s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range workloads {
		for _, m := range bs.EndToEnd {
			va, vb := byWorkload(a, wl.name, m.Name), byWorkload(b, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := (b2 - a2) / a2
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within bound"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved (spread wider than bound)"
			case change > m.Bound:
				verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*change, 100*m.Bound)
			case -change > m.Bound:
				verdict = fmt.Sprintf("better by %.1f%% (bound %.0f%%)", -100*change, 100*m.Bound)
			}
			fmt.Fprintf(w, "%-15s %-16s %-30s %-30s %s\n", wl.name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", a2, a1, a3, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", b2, b1, b3, len(vb)), verdict)
		}
	}
	return nil
}
