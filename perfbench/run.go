package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"elsi/internal/client"
	"elsi/internal/engine"
	"elsi/internal/geo"
)

const (
	// restarts is how many times a durable run kills and restarts the
	// served elsid; recovery_s is their median. An in-memory run
	// restarts it once and takes its other samples between rounds.
	restarts = 3
	// minTailSamples is the sample count a p99 needs, so that at least
	// ten samples lie beyond it.
	minTailSamples = 1000
	// Generator health bounds: a run beyond either is invalid.
	maxSlackUs = 6000.0
	maxLateMs  = 250.0
)

// runRecord is everything one run measured, plus what it ran on.
type runRecord struct {
	Workload   string
	Seed       int64
	Seconds    int
	Trace      bool
	Valid      bool
	GOMAXPROCS int
	NProc      int
	GoVersion  string
	Commit     string
	ElsidFlags []string                `json:",omitempty"`
	Ops        map[string]int          // op count per phase
	Setups     []float64               // seconds from exec to first answer: the served start, then one after each round
	Recoveries []float64               // seconds from SIGKILL to first answer, per restart
	Samples    map[string]int          // open-loop answered samples per op group
	Stats      map[string]engine.Stats // server Stats after setup and at the end of each phase slice
	Attempted  int
	Failed     int
	Correct    bool
	Mismatch   string `json:",omitempty"`
	Metrics    map[string]float64
	Units      map[string]string
}

func newRecord(w *workload, seed int64, secs int, trace bool) *runRecord {
	return &runRecord{
		Workload: w.name, Seed: seed, Seconds: secs, Trace: trace, Valid: true, Correct: true,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		Ops: map[string]int{}, Samples: map[string]int{}, Stats: map[string]engine.Stats{},
		Metrics: map[string]float64{}, Units: map[string]string{},
	}
}

func (r *runRecord) set(name, unit string, v float64) {
	r.Metrics[name] = v
	r.Units[name] = unit
}

// fail marks the run incorrect; the first mismatch is kept.
func (r *runRecord) fail(err error) {
	if r.Correct {
		r.Correct = false
		r.Mismatch = err.Error()
	}
}

// latency groups of the end-to-end metrics.
var groups = []struct {
	name  string
	kinds []opKind
}{
	{"point", []opKind{opPoint}},
	{"window", []opKind{opWindow}},
	{"knn", []opKind{opKNN}},
	{"write", []opKind{opInsert, opDelete}},
	{"insert", []opKind{opInsert}},
	{"delete", []opKind{opDelete}},
}

// openLoopMetrics sets the latency percentiles of the open loop and
// the generator health numbers. State drifts within a run (pending
// deletes widen every kNN), so a p50 over the whole loop would fall
// wherever the drifting distribution is thinnest; the p50 is taken per
// round and the median over rounds reported. A p99 spans the loop.
func (r *runRecord) openLoopMetrics(t *tape, ph phase, prefix string) {
	for _, g := range groups {
		var all, p50s []float64
		for round := 0; round+1 < len(ph.starts); round++ {
			var ms []float64
			for i := ph.starts[round]; i < ph.starts[round+1]; i++ {
				s := &ph.samples[i]
				if s.err == nil && containsKind(g.kinds, t.open[i].kind) {
					ms = append(ms, float64(s.latency())/1e6)
				}
			}
			if len(ms) > 0 {
				p50s = append(p50s, median(ms))
			}
			all = append(all, ms...)
		}
		if prefix == "" {
			r.Samples[g.name] = len(all)
		}
		if len(all) == 0 {
			continue
		}
		sort.Float64s(all)
		r.set(prefix+g.name+"_p50_ms", "ms", median(p50s))
		if len(all) >= minTailSamples {
			r.set(prefix+g.name+"_p99_ms", "ms", quantile(all, 0.99))
		}
	}
	var slack []float64
	for i := range ph.samples {
		if s := ph.samples[i].slack; s >= 0 {
			slack = append(slack, float64(s)/1e3)
		}
	}
	sort.Float64s(slack)
	if prefix == "" {
		r.set("gen.slack_us_p99", "us", quantile(slack, 0.99))
		r.set("gen.late_ms", "ms", float64(ph.late)/1e6)
		if ph.aborted || r.Metrics["gen.slack_us_p99"] > maxSlackUs || r.Metrics["gen.late_ms"] > maxLateMs {
			r.Valid = false
		}
	}
}

func (r *runRecord) countFailures(phases ...[]sample) {
	for _, ss := range phases {
		for i := range ss {
			r.Attempted++
			if ss[i].err != nil {
				r.Failed++
			}
		}
	}
}

func containsKind(ks []opKind, k opKind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func dialAll(addr string, n int) ([]*client.TCP, []target, error) {
	var cs []*client.TCP
	var ts []target
	for i := 0; i < n; i++ {
		c, err := client.DialTCP(addr)
		if err != nil {
			closeAll(cs)
			return nil, nil, err
		}
		cs = append(cs, c)
		ts = append(ts, c)
	}
	return cs, ts, nil
}

func closeAll(cs []*client.TCP) {
	for _, c := range cs {
		c.Close()
	}
}

// trimStats drops the per-model build statistics, which do not change
// during a run and would swamp the record.
func trimStats(st engine.Stats) engine.Stats {
	st.BuildStats = nil
	st.Shards = append([]engine.ShardStats(nil), st.Shards...)
	for i := range st.Shards {
		st.Shards[i].BuildStats = nil
	}
	return st
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// untraced runs one workload against a real elsid process: the timed
// rounds with a timed spare start between them, the checks, then
// SIGKILL and restart on the same flags (and, for durable-ingest, the
// same data directory) and the checks again.
func untraced(w *workload, t *tape, secs int, bin, work string) (*runRecord, error) {
	r := newRecord(w, t.seed, secs, false)
	o := newOracle(t)
	dataDir := filepath.Join(work, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)
	args := w.elsidArgs(t.seed, dataDir)
	r.ElsidFlags = args

	// setup starts a throwaway elsid on a fresh directory and times it;
	// the first start of a run is the one that serves.
	setup := func(dir string) (*daemon, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		d, took, err := startDaemon(bin, w.elsidArgs(t.seed, dir))
		if err != nil {
			return nil, err
		}
		r.Setups = append(r.Setups, took.Seconds())
		return d, nil
	}
	// restart SIGKILLs d and starts elsid again on the same flags,
	// timing from the kill to the first answer.
	restart := func(d *daemon, dir string) (*daemon, error) {
		killed := time.Now()
		d.kill()
		nd, _, err := startDaemon(bin, w.elsidArgs(t.seed, dir))
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		r.Recoveries = append(r.Recoveries, time.Since(killed).Seconds())
		return nd, nil
	}
	d, err := setup(dataDir)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()
	spare := dataDir + "-setup"
	defer os.RemoveAll(spare)

	cs, conns, err := dialAll(d.addr, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer func() { closeAll(cs) }()
	stats := func(name string) error {
		st, err := cs[0].Stats()
		r.Stats[name] = trimStats(st)
		return err
	}
	if err := stats("setup"); err != nil {
		return nil, err
	}
	epoch := time.Now()
	open, closed, err := timed(conns, t, epoch, func(round int, name string) error {
		if err := stats(fmt.Sprintf("%s.%d", name, round+1)); err != nil || name == "open" {
			return err
		}
		// Between rounds the served elsid is idle: time another start.
		sd, err := setup(spare)
		if err != nil {
			return err
		}
		if !w.durable {
			// An in-memory elsid restarts from the generated data set
			// whatever it served, so the spare's restart is a recovery
			// sample too, taken at another moment of the run.
			if sd, err = restart(sd, spare); err != nil {
				return err
			}
		}
		sd.kill()
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", median(r.Setups))
	r.Ops["open"], r.Ops["closed"], r.Ops["rounds"] = len(t.open), len(t.closed), rounds
	r.openLoopMetrics(t, open, "")
	r.set("capacity_rps", "req/s", float64(len(t.closed))/closed.wall.Seconds())
	r.countFailures(open.samples, closed.samples)
	r.set("failed_frac", "ratio", float64(r.Failed)/float64(r.Attempted))

	o.noteWrites(t.open, open.samples)
	o.noteWrites(t.closed, closed.samples)
	if err := checkAll(o, t, cs[0], open, closed, epoch); err != nil {
		r.fail(err)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("rss_peak_mb", "MB", rss)
	if w.durable {
		b, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		r.set("disk_bytes_per_point", "B", float64(b)/float64(r.Stats[fmt.Sprintf("closed.%d", rounds)].Len))
	}

	closeAll(cs)
	cs = nil
	n := 1
	if w.durable {
		n = restarts
	}
	for i := 0; i < n; i++ {
		restarted, err := restart(d, dataDir)
		if err != nil {
			return nil, err
		}
		d = restarted
	}
	r.set("recovery_s", "s", median(r.Recoveries))
	cs, _, err = dialAll(d.addr, 1)
	if err != nil {
		return nil, err
	}
	if err := checkRestart(w, o, t, cs[0], epoch); err != nil {
		r.fail(err)
	}
	return r, nil
}

// checkAll judges every answer of the timed phases, then runs the
// quiescent check set with no write in flight.
func checkAll(o *oracle, t *tape, c target, open, closed phase, epoch time.Time) error {
	if err := o.checkPhase("open loop", t.open, open.samples); err != nil {
		return err
	}
	if err := o.checkPhase("closed loop", t.closed, closed.samples); err != nil {
		return err
	}
	ops := append(sweep(), t.check...)
	return o.checkQuiet("quiescent check", ops, serial(c, ops, epoch))
}

// checkQuiet is checkPhase for a set run with no write in flight, where
// a failed request is itself a mismatch.
func (o *oracle) checkQuiet(name string, ops []op, samples []sample) error {
	for i := range samples {
		if err := samples[i].err; err != nil {
			return fmt.Errorf("%s op %d: %w", name, i, err)
		}
	}
	return o.checkPhase(name, ops, samples)
}

// checkRestart checks the restarted elsid with the check set and a
// sweep of windows over the whole space. A durable one must hold every
// acknowledged insert and no acknowledged delete; an in-memory one
// starts over from the generated data set.
func checkRestart(w *workload, o *oracle, t *tape, c target, epoch time.Time) error {
	if !w.durable {
		o = &oracle{cells: o.cells, writes: map[geo.Point]*writeRec{}}
	}
	ops := append(sweep(), t.check...)
	return o.checkQuiet("after restart", ops, serial(c, ops, epoch))
}
