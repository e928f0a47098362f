package main

import (
	"reflect"
	"testing"

	"elsi/internal/geo"
	"elsi/internal/qcache"
)

const testOps = 4000

func mustTape(t *testing.T, name string, seed int64) *tape {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := newTape(w, seed, testOps)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTapeIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := mustTape(t, w.name, 7), mustTape(t, w.name, 7)
		if !reflect.DeepEqual(a.open, b.open) || !reflect.DeepEqual(a.closed, b.closed) || !reflect.DeepEqual(a.check, b.check) {
			t.Errorf("%s: same seed gave different tapes", w.name)
		}
		if c := mustTape(t, w.name, 8); reflect.DeepEqual(a.open, c.open) {
			t.Errorf("%s: seeds 7 and 8 gave the same tape", w.name)
		}
	}
}

func TestTapeWriteTargets(t *testing.T) {
	for _, w := range workloads {
		tp := mustTape(t, w.name, 3)
		stored := map[geo.Point]bool{}
		for _, p := range tp.initial {
			stored[p] = true
		}
		hot := map[geo.Point]bool{}
		for _, p := range tp.hot {
			hot[p] = true
		}
		written := map[geo.Point]bool{}
		var ins, del int
		for _, o := range tp.writes() {
			if written[o.pt] {
				t.Fatalf("%s: %v written twice", w.name, o.pt)
			}
			written[o.pt] = true
			switch o.kind {
			case opInsert:
				ins++
				if stored[o.pt] {
					t.Fatalf("%s: insert target %v is already stored", w.name, o.pt)
				}
			case opDelete:
				del++
				if !stored[o.pt] {
					t.Fatalf("%s: delete target %v is not stored", w.name, o.pt)
				}
				if hot[o.pt] {
					t.Fatalf("%s: delete target %v is a hotspot", w.name, o.pt)
				}
			}
		}
		if ins == 0 || del == 0 {
			t.Errorf("%s: %d inserts, %d deletes", w.name, ins, del)
		}
	}
}

func TestTapeMixAndArrivals(t *testing.T) {
	for _, w := range workloads {
		tp := mustTape(t, w.name, 5)
		var n [numOps]int
		for i, o := range tp.open {
			n[o.kind]++
			if i > 0 && o.due < tp.open[i-1].due {
				t.Fatalf("%s: arrivals out of order at %d", w.name, i)
			}
		}
		for k, want := range w.mix {
			got := 100 * float64(n[k]) / float64(len(tp.open))
			if got < float64(want)-3 || got > float64(want)+3 {
				t.Errorf("%s: %s is %.1f%% of the open loop, want %d%%", w.name, opNames[k], got, want)
			}
		}
		rate := float64(len(tp.open)) / tp.open[len(tp.open)-1].due.Seconds()
		if rate < 0.9*w.rate || rate > 1.1*w.rate {
			t.Errorf("%s: arrival rate %.0f/s, want %.0f/s", w.name, rate, w.rate)
		}
		if len(tp.closed) != len(tp.open) {
			t.Errorf("%s: closed loop has %d ops", w.name, len(tp.closed))
		}
	}
}

func TestHotReadCentres(t *testing.T) {
	tp := mustTape(t, "hot-read", 9)
	if len(tp.hot) != hotspots {
		t.Fatalf("%d hotspots, want %d", len(tp.hot), hotspots)
	}
	stored := map[geo.Point]bool{}
	for _, p := range tp.initial {
		stored[p] = true
	}
	hot := map[geo.Point]bool{}
	for _, p := range tp.hot {
		if !stored[p] {
			t.Fatalf("hotspot %v is not a stored point", p)
		}
		hot[p] = true
	}
	c := qcache.New(qcache.Config{}) // elsid -cache uses the defaults
	for _, o := range tp.open {
		switch o.kind {
		case opPoint, opKNN:
			if !hot[o.pt] {
				t.Fatalf("%s centre %v is not a hotspot", opNames[o.kind], o.pt)
			}
		case opWindow:
			if !c.Cacheable(o.win) {
				t.Fatalf("window %v is larger than qcache's cacheable area", o.win)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var vs []float64
	for i := 1; i <= 10; i++ {
		vs = append(vs, float64(i))
	}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestOracleJudgesOverlaps pins the linearization rule: a read that
// overlaps a write may see either state, one after the acknowledgement
// must see the new state.
func TestOracleJudgesOverlaps(t *testing.T) {
	tp := mustTape(t, "uniform-mixed", 1)
	o := newOracle(tp)
	p := tp.initial[0]
	w := o.note(opDelete, p, 100)
	if err := o.checkPoint(p, true, 50, 150); err != nil {
		t.Errorf("read overlapping an unacknowledged delete: %v", err)
	}
	w.ack = 200
	if err := o.checkPoint(p, false, 150, 250); err != nil {
		t.Errorf("read overlapping the delete: %v", err)
	}
	if err := o.checkPoint(p, true, 300, 310); err == nil {
		t.Error("read after the acknowledged delete found the point")
	}
	if err := o.checkPoint(p, true, 10, 20); err != nil {
		t.Errorf("read before the delete: %v", err)
	}

	q := geo.Point{X: 0.5, Y: 0.5}
	best := nearest(tp.initial, q, 3)
	if err := o.checkKNN(q, 3, best, 0, 1); err != nil {
		t.Errorf("true kNN rejected: %v", err)
	}
	wrong := append([]geo.Point{best[0], best[1]}, nearest(tp.initial, q, 5)[4])
	if err := o.checkKNN(q, 3, wrong, 0, 1); err == nil {
		t.Error("kNN missing a closer stored point accepted")
	}
	win := window(q, windowSide)
	var in []geo.Point
	for _, x := range tp.initial {
		if win.Contains(x) {
			in = append(in, x)
		}
	}
	if err := o.checkWindow(win, in, 0, 1); err != nil {
		t.Errorf("true window rejected: %v", err)
	}
	if err := o.checkWindow(win, in[1:], 0, 1); err == nil {
		t.Error("window missing a stored point accepted")
	}
}

func nearest(pts []geo.Point, q geo.Point, k int) []geo.Point {
	out := make([]geo.Point, 0, k+1)
	for _, p := range pts {
		out = append(out, p)
		for i := len(out) - 1; i > 0 && out[i].Dist2(q) < out[i-1].Dist2(q); i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}
