package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"elsi/internal/base"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/persist"
	"elsi/internal/qcache"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/server"
	"elsi/internal/shard"
	"elsi/internal/wal"
	"elsi/internal/zm"
)

const (
	// replayPerOp caps the reads of each kind replayed on the end state.
	replayPerOp = 300
	// sideWrites caps the writes replayed on the side stacks that split
	// the write path into processor and WAL time.
	sideWrites = 2000
	// residualBound is the stated share of the traced request p50 that
	// the per-layer self times may leave unexplained.
	residualBound = 0.25
)

// span is one timed interval of the traced run. Spans of one request
// share its tape index; a backend batch span lists every request it
// served, and its parent is the first of them.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Req    int    `json:"req"`    // tape index, -1 for a batch that served none
	Size   int    `json:"size,omitempty"`
	Reqs   []int  `json:"reqs,omitempty"`

	kind  opKind
	keys  []qkey
	child int // request: index of the backend span that served it, -1 for none
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e3 } // µs

// qkey is a request's query value, which links it to the backend batch
// that carried it.
type qkey struct {
	win geo.Rect
	k   int
}

func pointKey(p geo.Point) qkey { return qkey{win: geo.Rect{MinX: p.X, MinY: p.Y}} }

func keyOf(o op) qkey {
	switch o.kind {
	case opWindow:
		return qkey{win: o.win}
	case opKNN:
		return qkey{win: geo.Rect{MinX: o.pt.X, MinY: o.pt.Y}, k: o.k}
	}
	return pointKey(o.pt)
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	phase string
	spans []span
}

func (tr *tracer) setPhase(p string) {
	tr.mu.Lock()
	tr.phase = p
	tr.mu.Unlock()
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	s.Phase = tr.phase
	s.Parent, s.Req = -1, -1
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// timedBackend is a timing decorator on engine.Backend: one span per
// batch and per update.
type timedBackend struct {
	engine.Backend
	tr *tracer
}

func (b *timedBackend) PointBatch(pts []geo.Point, out []bool) []bool {
	t0 := since(b.tr.epoch)
	out = b.Backend.PointBatch(pts, out)
	keys := make([]qkey, len(pts))
	for i, p := range pts {
		keys[i] = pointKey(p)
	}
	b.tr.add(span{Name: "backend.point", Start: t0, End: since(b.tr.epoch), Size: len(pts), kind: opPoint, keys: keys})
	return out
}

func (b *timedBackend) WindowBatch(wins []geo.Rect, out [][]geo.Point) [][]geo.Point {
	t0 := since(b.tr.epoch)
	out = b.Backend.WindowBatch(wins, out)
	keys := make([]qkey, len(wins))
	for i, w := range wins {
		keys[i] = qkey{win: w}
	}
	b.tr.add(span{Name: "backend.window", Start: t0, End: since(b.tr.epoch), Size: len(wins), kind: opWindow, keys: keys})
	return out
}

func (b *timedBackend) KNNVarBatch(qs []geo.Point, ks []int, out [][]geo.Point) [][]geo.Point {
	t0 := since(b.tr.epoch)
	out = b.Backend.KNNVarBatch(qs, ks, out)
	keys := make([]qkey, len(qs))
	for i, q := range qs {
		keys[i] = qkey{win: geo.Rect{MinX: q.X, MinY: q.Y}, k: ks[i]}
	}
	b.tr.add(span{Name: "backend.knn", Start: t0, End: since(b.tr.epoch), Size: len(qs), kind: opKNN, keys: keys})
	return out
}

func (b *timedBackend) Insert(p geo.Point) bool {
	t0 := since(b.tr.epoch)
	reb := b.Backend.Insert(p)
	b.tr.add(span{Name: "backend.insert", Start: t0, End: since(b.tr.epoch), Size: 1, kind: opInsert, keys: []qkey{pointKey(p)}})
	return reb
}

func (b *timedBackend) Delete(p geo.Point) bool {
	t0 := since(b.tr.epoch)
	reb := b.Backend.Delete(p)
	b.tr.add(span{Name: "backend.delete", Start: t0, End: since(b.tr.epoch), Size: 1, kind: opDelete, keys: []qkey{pointKey(p)}})
	return reb
}

// stack builds the serving stack elsid builds for w, from the same
// public constructors and with no tuning field set.
type stack struct {
	pred    *rebuild.Predictor
	factory func() rebuild.Rebuildable
	mapKey  func(geo.Point) float64
	fu      int
	shards  int
}

func newStack(w *workload, seed int64) (*stack, error) {
	pred, err := rebuild.TrainPredictor(
		rebuild.HeuristicSamples(rand.New(rand.NewSource(seed)), 1000),
		rebuild.PredictorConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	factory := func() rebuild.Rebuildable {
		return zm.New(zm.Config{
			Space:   geo.UnitRect,
			Builder: &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)},
			Fanout:  8,
		})
	}
	st := &stack{pred: pred, factory: factory, mapKey: factory().(*zm.Index).MapKey, fu: nPoints / 10, shards: w.shard}
	if st.shards > 1 {
		st.fu = max(1, st.fu/st.shards)
	}
	return st, nil
}

func (st *stack) configure(p *rebuild.Processor) { p.Retry = &rebuild.RetryPolicy{} }

func (st *stack) memory(pts []geo.Point) (engine.Backend, error) {
	mk := func(sub []geo.Point) (*rebuild.Processor, error) {
		p, err := rebuild.NewProcessor(st.factory(), st.pred, sub, st.mapKey, st.fu)
		if err != nil {
			return nil, err
		}
		p.Factory = st.factory
		st.configure(p)
		return p, nil
	}
	if st.shards <= 1 {
		p, err := mk(pts)
		if err != nil {
			return nil, err
		}
		return engine.NewSingle(p, 0), nil
	}
	return shard.New(pts, geo.UnitRect, shard.Config{Shards: st.shards}, mk)
}

func (st *stack) persistConfig(dir string) persist.Config {
	return persist.Config{
		Dir: dir, WAL: wal.Options{Policy: wal.SyncAlways}, Shards: st.shards, Space: geo.UnitRect,
		Factory: st.factory, MapKey: st.mapKey, Pred: st.pred, Fu: st.fu, Configure: st.configure,
	}
}

// processors lists the update processors behind a backend.
func processors(be engine.Backend) []*rebuild.Processor {
	switch b := be.(type) {
	case *engine.Single:
		return []*rebuild.Processor{b.Processor()}
	case *shard.Router:
		var out []*rebuild.Processor
		for i := 0; i < b.NumShards(); i++ {
			out = append(out, b.Processor(i))
		}
		return out
	case *persist.Store:
		return processors(b.Router())
	}
	return nil
}

// traced runs the workload's tape on the stack assembled in-process
// behind a timing decorator, served on loopback, then replays the
// tape on the end state layer by layer. It returns the per-layer
// record; the counters come from base, the untraced run of the same
// tape.
func traced(w *workload, t *tape, secs int, baseRec *runRecord, out string) (*runRecord, error) {
	r := newRecord(w, t.seed, secs, true)
	r.Stats = baseRec.Stats
	r.Attempted, r.Failed, r.Correct, r.Mismatch = baseRec.Attempted, baseRec.Failed, baseRec.Correct, baseRec.Mismatch
	for n, v := range baseRec.Metrics {
		r.set("untraced."+n, baseRec.Units[n], v)
	}
	for _, n := range []string{"gen.slack_us_p99", "gen.late_ms"} {
		r.set(n, baseRec.Units[n], baseRec.Metrics[n])
	}
	st, err := newStack(w, t.seed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(out, fmt.Sprintf("trace-%d", os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var be engine.Backend
	var store *persist.Store
	if w.durable {
		store, err = persist.Create(st.persistConfig(filepath.Join(work, "served")), t.initial)
		be = store
	} else {
		be, err = st.memory(t.initial)
	}
	if err != nil {
		return nil, err
	}
	tr := &tracer{epoch: time.Now()}
	tb := &timedBackend{Backend: be, tr: tr}
	cfg := engine.Config{}
	if w.cache {
		cfg.Cache = &qcache.Config{}
	}
	eng := engine.NewWithBackend(tb, nil, cfg)
	srv := server.New(eng)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Start(ctx, "", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	cs, conns, err := dialAll(srv.TCPAddr(), runtime.NumCPU())
	if err != nil {
		srv.Close()
		return nil, err
	}

	// Timed phases, as in the untraced run.
	o := newOracle(t)
	var reqs []span
	tr.setPhase("open")
	open, closed, err := timed(conns, t, tr.epoch, func(_ int, name string) error {
		if name == "open" {
			tr.setPhase("closed")
		} else {
			tr.setPhase("open")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reqs = requestSpans(reqs, "open", t.open, open.samples, 0)
	reqs = requestSpans(reqs, "closed", t.closed, closed.samples, len(t.open))
	r.openLoopMetrics(t, open, "traced.")
	r.countFailures(open.samples, closed.samples)
	o.noteWrites(t.open, open.samples)
	o.noteWrites(t.closed, closed.samples)
	tr.setPhase("check")
	if err := checkAll(o, t, cs[0], open, closed, tr.epoch); err != nil {
		r.fail(fmt.Errorf("traced run: %w", err))
	}

	// The tape's reads on the end state, each over TCP and through the
	// engine directly, back to back so that both meet the same state and
	// the same moment of the machine; which goes first alternates, so
	// neither always meets the cache entry the other just filled.
	reads := t.reads(replayPerOp)
	viaTCP, direct := make([]sample, len(reads)), make([]sample, len(reads))
	for i, o := range reads {
		legs := [2]func(){
			func() { tr.setPhase("replay_tcp"); timeOne(cs[0], o, &viaTCP[i], tr.epoch) },
			func() { tr.setPhase("replay_engine"); timeOne(eng, o, &direct[i], tr.epoch) },
		}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		legs[0]()
		legs[1]()
	}
	reqs = requestSpans(reqs, "replay_tcp", reads, viaTCP, 0)
	reqs = requestSpans(reqs, "replay_engine", reads, direct, 0)
	tr.setPhase("end")
	closeAll(cs)
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	eng.Close()
	bstats := be.BackendStats()

	all := link(reqs, tr.spans)
	if err := writeSpans(filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, t.seed)), all); err != nil {
		return nil, err
	}
	r.layerMetrics(all, bstats, baseRec)

	// Durable end state: SIGKILL-equivalent and reopen, which splits
	// recovery into load and replay; the reopened store carries on.
	if store != nil {
		if store, err = persistCycle(r, store, st.persistConfig(filepath.Join(work, "served"))); err != nil {
			return nil, err
		}
		be = store
	}
	if err := forcedRebuild(r, be, t); err != nil {
		return nil, err
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	if err := standaloneZM(r, st, t); err != nil {
		return nil, err
	}
	if err := sideWritePath(r, st, t, filepath.Join(work, "side"), !w.durable); err != nil {
		return nil, err
	}
	return r, nil
}

// requestSpans appends one request span per answered call of a phase.
func requestSpans(dst []span, ph string, ops []op, samples []sample, base int) []span {
	for i, x := range ops {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		dst = append(dst, span{Name: "request", Phase: ph, Start: s.send, End: s.recv, Parent: -1, Req: base + i,
			kind: x.kind, keys: []qkey{keyOf(x)}})
	}
	return dst
}

// link joins the backend spans to the requests they served: same
// phase, same query value, and the backend span inside the request
// span. It returns requests followed by backend spans.
func link(reqs, backend []span) []span {
	type at struct {
		phase string
		kind  opKind
		key   qkey
	}
	byKey := map[at][]int{}
	for i := range reqs {
		reqs[i].child = -1
		k := at{reqs[i].Phase, reqs[i].kind, reqs[i].keys[0]}
		byKey[k] = append(byKey[k], i)
	}
	all := append(reqs, backend...)
	for bi := len(reqs); bi < len(all); bi++ {
		b := &all[bi]
		for _, key := range b.keys {
			for _, ri := range byKey[at{b.Phase, b.kind, key}] {
				q := &all[ri]
				if q.child < 0 && q.Start <= b.Start && b.End <= q.End {
					q.child = bi
					b.Reqs = append(b.Reqs, q.Req)
					if b.Parent < 0 {
						b.Parent, b.Req = ri, q.Req
					}
					break
				}
			}
		}
	}
	return all
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the span-based per-layer metrics and takes the
// counters from the untraced run's Stats at the end of its closed loop.
func (r *runRecord) layerMetrics(all []span, bs engine.BackendStats, baseRec *runRecord) {
	durs := func(phase string, kind opKind, f func(*span) float64) []float64 {
		var out []float64
		for i := range all {
			s := &all[i]
			if s.Name == "request" && s.Phase == phase && s.kind == kind {
				out = append(out, f(s))
			}
		}
		return out
	}
	covered := func(s *span) float64 {
		if s.child < 0 {
			return 0
		}
		return all[s.child].dur()
	}
	whole := func(s *span) float64 { return s.dur() }
	// The replays run each read over TCP and directly, back to back;
	// transport time is the per-read difference of the pair.
	direct := map[int]*span{}
	for i := range all {
		if s := &all[i]; s.Name == "request" && s.Phase == "replay_engine" {
			direct[s.Req] = s
		}
	}
	worst := 0.0
	for _, k := range []opKind{opPoint, opWindow, opKNN} {
		name := opNames[k]
		var diffs []float64
		for i := range all {
			if s := &all[i]; s.Name == "request" && s.Phase == "replay_tcp" && s.kind == k && direct[s.Req] != nil {
				diffs = append(diffs, s.dur()-direct[s.Req].dur())
			}
		}
		tcp := median(durs("replay_tcp", k, whole))
		transport := median(diffs)
		wait := median(durs("replay_engine", k, func(s *span) float64 { return s.dur() - covered(s) }))
		be := median(durs("replay_engine", k, covered))
		r.set("transport.self_us."+name, "us", transport)
		r.set("engine.wait_us."+name, "us", wait)
		residual := tcp - transport - wait - be
		r.set("trace.residual_us."+name, "us", residual)
		worst = max(worst, math.Abs(residual)/tcp)
	}
	r.set("trace.residual_frac", "ratio", worst)
	var wr []float64
	for _, ph := range []string{"open", "closed"} {
		for _, k := range []opKind{opInsert, opDelete} {
			wr = append(wr, durs(ph, k, func(s *span) float64 { return s.dur() - covered(s) })...)
		}
	}
	r.set("transport.self_us.write", "us", median(wr))

	// qserve: backend batch span ÷ batch size over the timed phases.
	var perQ [numOps][]float64
	for i := range all {
		s := &all[i]
		if s.Name != "request" && (s.Phase == "open" || s.Phase == "closed") && !s.kind.write() {
			perQ[s.kind] = append(perQ[s.kind], s.dur()/float64(s.Size))
		}
	}
	for _, k := range []opKind{opPoint, opWindow, opKNN} {
		r.set("qserve."+opNames[k]+"_us", "us", median(perQ[k]))
	}
	knn := perQ[opKNN] // in completion order, which is time order
	tenth := max(1, len(knn)/10)
	r.set("qserve.knn_growth", "ratio", mean(knn[len(knn)-tenth:])/mean(knn[:tenth]))

	// shard: shards visited per query that reached the backend.
	var windows, knns int
	for i := range all {
		if s := &all[i]; s.Name == "backend.window" {
			windows += s.Size
		} else if s.Name == "backend.knn" {
			knns += s.Size
		}
	}
	var wv, kv, pmax, psum float64
	for _, sh := range bs.Shards {
		wv += float64(sh.WindowQueries)
		kv += float64(sh.KNNQueries)
		pmax = max(pmax, float64(sh.PointQueries))
		psum += float64(sh.PointQueries)
	}
	r.set("shard.window_fanout", "count", wv/float64(windows))
	r.set("shard.knn_fanout", "count", kv/float64(knns))
	r.set("shard.point_skew", "ratio", pmax/(psum/float64(len(bs.Shards))))

	// Counters of the untraced run.
	st := baseRec.Stats[fmt.Sprintf("closed.%d", rounds)]
	r.set("engine.batch_size_mean", "count", float64(st.BatchedQueries)/float64(st.Batches))
	r.set("engine.timer_flush_frac", "ratio", float64(st.FlushByTimer)/float64(st.Batches))
	r.set("engine.overloads", "count", float64(st.Overloads))
	var hit, stale float64
	var evictions int64
	if c := st.Cache; c != nil {
		hit = c.HitRate
		if c.Misses > 0 {
			stale = float64(c.Stale) / float64(c.Misses)
		}
		evictions = c.Evictions
	}
	r.set("qcache.hit_rate", "ratio", hit)
	r.set("qcache.stale_frac", "ratio", stale)
	r.set("qcache.evictions", "count", float64(evictions))
	r.set("rebuild.pending_end", "count", float64(st.PendingUpdates))
	r.set("rebuild.rebuilds", "count", float64(st.Rebuilds))

	// Tracing overhead plus running in one process: the traced p50s
	// against the untraced ones, averaged over the op groups.
	var gap []float64
	for _, g := range groups {
		if u := baseRec.Metrics[g.name+"_p50_ms"]; u > 0 {
			gap = append(gap, r.Metrics["traced."+g.name+"_p50_ms"]/u-1)
		}
	}
	r.set("trace.gap_frac", "ratio", mean(gap))
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// persistCycle kills the store the way a crash would and reopens it,
// then times a snapshot of the recovered state.
func persistCycle(r *runRecord, store *persist.Store, cfg persist.Config) (*persist.Store, error) {
	store.Kill()
	reopened, err := persist.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	var load, replay time.Duration
	var records, snapBytes int
	for _, sr := range reopened.Recovery().Shards {
		load = max(load, sr.Load)
		replay += sr.Replay
		records += sr.WALRecords
		snapBytes += sr.SnapshotBytes
	}
	r.set("persist.load_ms", "ms", float64(load)/1e6)
	r.set("persist.replay_us_per_record", "us", float64(replay)/1e3/float64(max(records, 1)))
	r.set("snapshot.bytes", "B", float64(snapBytes))
	t0 := time.Now()
	if err := reopened.Snapshot(); err != nil {
		reopened.Close()
		return nil, err
	}
	r.set("snapshot.write_ms", "ms", float64(time.Since(t0))/1e6)
	return reopened, nil
}

// forcedRebuild rebuilds every processor of the end state and times
// kNN on the rebuilt index.
func forcedRebuild(r *runRecord, be engine.Backend, t *tape) error {
	procs := processors(be)
	t0 := time.Now()
	for _, p := range procs {
		p.Rebuild()
	}
	for _, p := range procs {
		p.WaitRebuild()
		if err := p.RebuildErr(); err != nil {
			return fmt.Errorf("forced rebuild: %w", err)
		}
	}
	r.set("rebuild.full_ms", "ms", float64(time.Since(t0))/1e6)
	var us []float64
	for _, o := range t.reads(replayPerOp) {
		if o.kind == opKNN {
			t0 := time.Now()
			be.KNNVarBatch([]geo.Point{o.pt}, []int{o.k}, nil)
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	r.set("rebuild.knn_after_us", "us", median(us))
	return nil
}

// standaloneZM builds a bare zm.Index on the initial points and replays
// the tape's reads on it: the index probe alone.
func standaloneZM(r *runRecord, st *stack, t *tape) error {
	ix := st.factory().(*zm.Index)
	t0 := time.Now()
	if err := ix.Build(append([]geo.Point(nil), t.initial...)); err != nil {
		return err
	}
	r.set("zm.build_ms", "ms", float64(time.Since(t0))/1e6)
	var ew float64
	for _, b := range ix.Stats() {
		ew += float64(b.ErrWidth)
	}
	r.set("zm.err_width", "count", ew/float64(max(len(ix.Stats()), 1)))
	ix.ResetCounters()
	var us [numOps][]float64
	reads := t.reads(replayPerOp)
	for _, o := range reads {
		t0 := time.Now()
		switch o.kind {
		case opPoint:
			ix.PointQuery(o.pt)
		case opWindow:
			ix.WindowQuery(o.win)
		case opKNN:
			ix.KNN(o.pt, o.k)
		}
		us[o.kind] = append(us[o.kind], float64(time.Since(t0))/1e3)
	}
	for _, k := range []opKind{opPoint, opWindow, opKNN} {
		r.set("zm."+opNames[k]+"_us", "us", median(us[k]))
	}
	r.set("zm.scanned_per_query", "count", float64(ix.Scanned())/float64(len(reads)))
	r.set("zm.model_calls_per_query", "count", float64(ix.ModelInvocations())/float64(len(reads)))
	return nil
}

// sideWritePath replays the tape's first writes on two fresh stacks of
// the workload's shape, one in memory and one durable with fsync
// always, and takes the update processor's time from the first and the
// WAL's from their difference, write by write. With cycle it also
// kills and reopens the durable one (for workloads whose served stack
// is in memory).
func sideWritePath(r *runRecord, st *stack, t *tape, dir string, cycle bool) error {
	writes := t.writes()
	writes = writes[:min(len(writes), sideWrites)]
	mem, err := st.memory(t.initial)
	if err != nil {
		return err
	}
	store, err := persist.Create(st.persistConfig(dir), t.initial)
	if err != nil {
		return err
	}
	apply := func(be engine.Backend) []float64 {
		out := make([]float64, len(writes))
		for i, o := range writes {
			t0 := time.Now()
			if o.kind == opInsert {
				be.Insert(o.pt)
			} else {
				be.Delete(o.pt)
			}
			out[i] = float64(time.Since(t0)) / 1e3
		}
		return out
	}
	memUs := apply(mem)
	before, err := dirBytes(dir)
	if err != nil {
		store.Close()
		return err
	}
	durUs := apply(store)
	after, err := dirBytes(dir)
	if err != nil {
		store.Close()
		return err
	}
	var ins, del, walUs []float64
	for i, o := range writes {
		if o.kind == opInsert {
			ins = append(ins, memUs[i])
		} else {
			del = append(del, memUs[i])
		}
		walUs = append(walUs, durUs[i]-memUs[i])
	}
	for name, vs := range map[string][]float64{"rebuild.insert_us": ins, "rebuild.delete_us": del, "wal.append_us": walUs} {
		sort.Float64s(vs)
		r.set(name+"_p50", "us", quantile(vs, 0.5))
		r.set(name+"_max", "us", vs[len(vs)-1])
	}
	r.set("wal.bytes_per_write", "B", float64(after-before)/float64(len(writes)))
	if cycle {
		if store, err = persistCycle(r, store, st.persistConfig(dir)); err != nil {
			return err
		}
	}
	return store.Close()
}
