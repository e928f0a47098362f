package main

import (
	"fmt"
	"math/rand"
	"time"

	"elsi/internal/dataset"
	"elsi/internal/geo"
)

// opKind is one of the five served operations.
type opKind uint8

const (
	opPoint opKind = iota
	opWindow
	opKNN
	opInsert
	opDelete
	numOps
)

var opNames = [numOps]string{"point", "window", "knn", "insert", "delete"}

func (k opKind) write() bool { return k == opInsert || k == opDelete }

// Fixed shape of every workload.
const (
	nPoints       = 200000
	windowSide    = 0.02  // uniform windows: 0.02×0.02
	hotWindowSide = 0.015 // hot windows: area 2.25e-4 and ~45 points, inside qcache's defaults
	hotspots      = 128
	zipfS         = 2.0
	maxK          = 16
)

// workload is one named traffic mix against one elsid deployment.
type workload struct {
	name  string
	mix   [numOps]int // percentages: point, window, knn, insert, delete
	rate  float64     // open-loop arrivals per second
	hot   bool        // reads centre on Zipf-ranked hotspots
	shard int         // -shards
	cache bool        // -cache
	// durable runs elsid with -data <fresh dir> -fsync always.
	durable bool
}

var workloads = []workload{
	// Uniform reads on one uncached in-memory shard: every query takes
	// the timer-flushed batch path and every kNN is widened by the
	// pending deletes, while the index probe is a sliver.
	{
		name:  "uniform-mixed",
		mix:   [numOps]int{40, 10, 15, 20, 15},
		rate:  250,
		shard: 1,
	},
	// Zipf reads on 128 hotspots over four cached shards: transport,
	// qcache and the shard router dominate, the index is barely touched.
	{
		name:  "hot-read",
		mix:   [numOps]int{60, 15, 10, 10, 5},
		rate:  500,
		hot:   true,
		shard: 4,
		cache: true,
	},
	// 80% writes on a durable store with fsync always, then SIGKILL and
	// restart: the WAL, recovery and the write path.
	{
		name:    "durable-ingest",
		mix:     [numOps]int{10, 5, 5, 45, 35},
		rate:    150,
		shard:   1,
		durable: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// elsidArgs are the flags elsid runs with: the data-set flags, the
// deployment flags of the workload, and the listen addresses.
func (w *workload) elsidArgs(seed int64, dataDir string) []string {
	args := []string{"-http", "", "-tcp", "127.0.0.1:0",
		"-dataset", dataset.Uniform, "-n", fmt.Sprint(nPoints), "-seed", fmt.Sprint(seed)}
	if w.shard > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shard))
	}
	if w.cache {
		args = append(args, "-cache")
	}
	if w.durable {
		args = append(args, "-data", dataDir, "-fsync", "always")
	}
	return args
}

// op is one request of a tape.
type op struct {
	kind opKind
	pt   geo.Point     // point and kNN centre, write target
	win  geo.Rect      // window
	k    int           // kNN
	due  time.Duration // open-loop arrival offset from the phase start
}

// tape is the seeded request sequence of one run: the open loop, the
// closed loop of as many ops that continues it, and the quiescent
// check set. Phases are op counts, so state drift is the same in every
// run of a workload.
type tape struct {
	seed    int64
	initial []geo.Point
	hot     []geo.Point
	open    []op
	closed  []op
	check   []op // reads compared exactly with the oracle once writes stop
}

// newTape regenerates elsid's initial points from the seed and draws
// the requests. Deletes take stored points without replacement (never
// a hotspot); inserts take fresh uniform points that are not stored,
// so no point is written twice.
func newTape(w *workload, seed int64, openN int) (*tape, error) {
	pts, err := dataset.Generate(dataset.Uniform, nPoints, seed)
	if err != nil {
		return nil, err
	}
	t := &tape{seed: seed, initial: pts}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	stored := make(map[geo.Point]bool, len(pts))
	for _, p := range pts {
		stored[p] = true
	}
	// perm[0:used] are taken (hotspots, then delete targets).
	perm := make([]int32, len(pts))
	for i := range perm {
		perm[i] = int32(i)
	}
	used := 0
	take := func() geo.Point {
		j := used + rng.Intn(len(perm)-used)
		perm[used], perm[j] = perm[j], perm[used]
		used++
		return pts[perm[used-1]]
	}
	var zipf *rand.Zipf
	if w.hot {
		for i := 0; i < hotspots; i++ {
			t.hot = append(t.hot, take())
		}
		zipf = rand.NewZipf(rng, zipfS, 1, hotspots-1)
	}
	inserted := make(map[geo.Point]bool)
	fresh := func() geo.Point {
		for {
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			if !stored[p] && !inserted[p] {
				inserted[p] = true
				return p
			}
		}
	}
	centre := func() geo.Point {
		if w.hot {
			return t.hot[zipf.Uint64()]
		}
		return pts[rng.Intn(len(pts))]
	}
	side := windowSide
	if w.hot {
		side = hotWindowSide
	}
	draw := func() op {
		r := rng.Intn(100)
		var k opKind
		for k = 0; k < numOps-1 && r >= w.mix[k]; k++ {
			r -= w.mix[k]
		}
		o := op{kind: k}
		switch k {
		case opPoint:
			o.pt = centre()
		case opWindow:
			o.win = window(centre(), side)
		case opKNN:
			o.pt = centre()
			o.k = 1 + rng.Intn(maxK)
		case opInsert:
			o.pt = fresh()
		case opDelete:
			o.pt = take()
		}
		return o
	}
	var at time.Duration
	for i := 0; i < openN; i++ {
		o := draw()
		at += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		o.due = at
		t.open = append(t.open, o)
	}
	for i := 0; i < openN; i++ {
		t.closed = append(t.closed, draw())
	}
	t.check = checkSet(rand.New(rand.NewSource(seed*104729+3)), pts, t.writes())
	return t, nil
}

// checkSet draws the quiescent check: point queries on stored points,
// on written points and at random, plus windows and kNN anywhere.
func checkSet(rng *rand.Rand, pts []geo.Point, writes []op) []op {
	var out []op
	for i := 0; i < 100; i++ {
		out = append(out, op{kind: opPoint, pt: pts[rng.Intn(len(pts))]})
		out = append(out, op{kind: opPoint, pt: geo.Point{X: rng.Float64(), Y: rng.Float64()}})
		if len(writes) > 0 {
			out = append(out, op{kind: opPoint, pt: writes[rng.Intn(len(writes))].pt})
		}
		c := pts[rng.Intn(len(pts))]
		out = append(out, op{kind: opWindow, win: window(c, windowSide)})
		out = append(out, op{kind: opKNN, pt: geo.Point{X: rng.Float64(), Y: rng.Float64()}, k: 1 + rng.Intn(maxK)})
	}
	return out
}

// sweep tiles the unit square with windows, so that a check over it
// compares every stored point with the oracle.
func sweep() []op {
	const tiles = 20
	var out []op
	for y := 0; y < tiles; y++ {
		for x := 0; x < tiles; x++ {
			out = append(out, op{kind: opWindow, win: geo.Rect{
				MinX: float64(x) / tiles, MinY: float64(y) / tiles,
				MaxX: float64(x+1) / tiles, MaxY: float64(y+1) / tiles,
			}})
		}
	}
	return out
}

// writes returns every insert and delete of both phases in tape order.
func (t *tape) writes() []op {
	var out []op
	for _, ops := range [][]op{t.open, t.closed} {
		for _, o := range ops {
			if o.kind.write() {
				out = append(out, o)
			}
		}
	}
	return out
}

// reads returns up to perOp reads of each kind from the open loop.
func (t *tape) reads(perOp int) []op {
	var n [numOps]int
	var out []op
	for _, o := range t.open {
		if !o.kind.write() && n[o.kind] < perOp {
			n[o.kind]++
			out = append(out, o)
		}
	}
	return out
}

// window is the side×side square centred on c, clipped to the unit
// square.
func window(c geo.Point, side float64) geo.Rect {
	h := side / 2
	return geo.Rect{
		MinX: max(0, c.X-h), MinY: max(0, c.Y-h),
		MaxX: min(1, c.X+h), MaxY: min(1, c.Y+h),
	}
}
