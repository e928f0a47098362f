// Command perfbench is the repository's benchmark of the served system.
// It starts the real elsid once per workload with deployment flags
// only, drives it over binary TCP from one process with one connection
// and one sending goroutine per CPU, checks every answer against its
// own oracle, and prints the end-to-end metrics. With -trace 1 it also
// assembles the same stack in-process, times the calls into each
// layer, and prints the per-layer metrics. See README.md.
//
// Usage (from the repository root; run.sh builds elsid and this
// command first):
//
//	perfbench -elsid <binary> -workload hot-read -seed 1 -seconds 15 -trace 0
//	perfbench compare <output-a> <output-b>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json, read from the working
// directory, that the benchmark uses: the metric names, units and
// bounds it reports.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		elsid   = flag.String("elsid", "", "elsid binary built from this checkout")
		out     = flag.String("out", ".bench_build/perfbench", "directory for spans and scratch data")
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: data set, tape and oracle")
		seconds = flag.Int("seconds", 0, "open-loop length in seconds at the workload's rate (0 = BENCHMARK.json run_seconds)")
		trace   = flag.Int("trace", 0, "1 = also run the traced in-process stack and report per-layer metrics")
	)
	flag.Parse()
	bs, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			return fmt.Errorf("usage: perfbench compare <output-a> <output-b>")
		}
		return compare(os.Stdout, bs, flag.Arg(1), flag.Arg(2))
	}
	if *elsid == "" {
		return fmt.Errorf("-elsid is required")
	}
	if *seconds <= 0 {
		*seconds = bs.RunSeconds
	}
	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	wanted := bs.EndToEnd
	if *trace == 1 {
		wanted = bs.PerLayer
	}
	var recs []*runRecord
	for _, w := range ws {
		r, err := runWorkload(w, *seed, *seconds, *trace == 1, *elsid, *out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report(os.Stdout, r)
		recs = append(recs, r)
	}
	return final(os.Stdout, recs, wanted)
}

// attempts bounds the reruns of a run whose generator broke its bounds.
const attempts = 3

func runWorkload(w *workload, seed int64, secs int, trace bool, bin, out string) (*runRecord, error) {
	t, err := newTape(w, seed, int(w.rate*float64(secs)))
	if err != nil {
		return nil, err
	}
	for i := 0; i < attempts; i++ {
		r, err := untraced(w, t, secs, bin, out)
		if err != nil {
			return nil, err
		}
		if !r.Valid && r.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: generator out of bounds (slack p99 %.0f us, late %.1f ms); running again\n",
				w.name, seed, r.Metrics["gen.slack_us_p99"], r.Metrics["gen.late_ms"])
			continue
		}
		if trace && r.Correct {
			return traced(w, t, secs, r, out)
		}
		return r, nil
	}
	return nil, fmt.Errorf("generator out of bounds in %d attempts", attempts)
}

// report prints every metric of a run by name with its unit.
func report(f *os.File, r *runRecord) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "== %s seed %d (trace %v, correct %v, %d attempted, %d failed)\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	if !r.Correct {
		fmt.Fprintf(f, "MISMATCH: %s\n", r.Mismatch)
	}
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, r.Metrics[n], r.Units[n])
	}
	if r.Trace {
		fmt.Fprintf(f, "per-layer self times leave %.1f%% of the traced request p50 unexplained (stated bound %.0f%%)\n",
			100*r.Metrics["trace.residual_frac"], 100*residualBound)
	}
	data, _ := json.Marshal(r) // a record holds only marshalable values
	fmt.Fprintf(f, "record: %s\n", data)
}

// final prints the result line: the wanted metrics of the run (the
// median over workloads when several ran, for a one-line summary).
func final(f *os.File, recs []*runRecord, wanted []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	var missing []string
	for _, m := range wanted {
		var vs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[m.Name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) < len(recs) {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = value{median(vs), m.Unit}
	}
	for _, r := range recs {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(data))
	if !res.Correct {
		return fmt.Errorf("oracle mismatch")
	}
	return nil
}

// commit is the VCS revision stamped into this binary, if any.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
