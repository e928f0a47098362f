package main

import (
	"fmt"
	"math"

	"elsi/internal/geo"
)

// oracle is the benchmark's own answer to every request: a uniform
// grid over every point that can ever be stored (the initial points and
// every insert target of the tape), plus the client-side send and
// acknowledgement time of every write. A read is judged against every
// state a linearization may show it: a written point is surely live if
// its write was acknowledged before the read was sent (insert) or sent
// after the read was answered (delete), possibly live if the two
// overlapped, and dead otherwise.
type oracle struct {
	cells  [][]gridPoint
	writes map[geo.Point]*writeRec
}

const gridSide = 512

type gridPoint struct {
	p    geo.Point
	init bool
}

type writeRec struct {
	kind      opKind
	send, ack int64 // ns since the run epoch; ack < 0 until acknowledged
}

func newOracle(t *tape) *oracle {
	o := &oracle{cells: make([][]gridPoint, gridSide*gridSide), writes: make(map[geo.Point]*writeRec)}
	for _, p := range t.initial {
		o.add(gridPoint{p: p, init: true})
	}
	for _, w := range t.writes() {
		if w.kind == opInsert {
			o.add(gridPoint{p: w.pt})
		}
	}
	return o
}

func cellOf(v float64) int {
	c := int(v * gridSide)
	return min(max(c, 0), gridSide-1)
}

func (o *oracle) add(g gridPoint) {
	i := cellOf(g.p.Y)*gridSide + cellOf(g.p.X)
	o.cells[i] = append(o.cells[i], g)
}

// note records a write as sent; ack marks it acknowledged.
func (o *oracle) note(kind opKind, p geo.Point, send int64) *writeRec {
	w := &writeRec{kind: kind, send: send, ack: -1}
	o.writes[p] = w
	return w
}

// live reports whether p may be, and whether it must be, stored for a
// read sent at qs and answered at qr.
func (o *oracle) live(g gridPoint, qs, qr int64) (maybe, sure bool) {
	w, ok := o.writes[g.p]
	if !ok {
		return g.init, g.init
	}
	before := w.kind == opDelete
	switch {
	case w.ack >= 0 && w.ack < qs:
		return !before, !before
	case w.send > qr:
		return before, before
	default:
		return true, false
	}
}

// visit calls fn on every grid point inside r.
func (o *oracle) visit(r geo.Rect, fn func(gridPoint)) {
	for cy := cellOf(r.MinY); cy <= cellOf(r.MaxY); cy++ {
		for cx := cellOf(r.MinX); cx <= cellOf(r.MaxX); cx++ {
			for _, g := range o.cells[cy*gridSide+cx] {
				if r.Contains(g.p) {
					fn(g)
				}
			}
		}
	}
}

func (o *oracle) known(p geo.Point) (gridPoint, bool) {
	for _, g := range o.cells[cellOf(p.Y)*gridSide+cellOf(p.X)] {
		if g.p == p {
			return g, true
		}
	}
	return gridPoint{}, false
}

// checkPoint judges a point-query answer.
func (o *oracle) checkPoint(p geo.Point, found bool, qs, qr int64) error {
	g, ok := o.known(p)
	if !ok {
		if found {
			return fmt.Errorf("point %v: found, but it was never stored", p)
		}
		return nil
	}
	maybe, sure := o.live(g, qs, qr)
	if found && !maybe || !found && sure {
		return fmt.Errorf("point %v: found=%v, oracle says stored=%v", p, found, sure)
	}
	return nil
}

// checkResult verifies that every returned point is distinct and may be
// stored, and that every point of r that must be stored and satisfies
// need was returned.
func (o *oracle) checkResult(got []geo.Point, r geo.Rect, in func(geo.Point) bool, qs, qr int64) error {
	seen := make(map[geo.Point]bool, len(got))
	for _, p := range got {
		if seen[p] {
			return fmt.Errorf("%v returned twice", p)
		}
		seen[p] = true
		g, ok := o.known(p)
		if !ok {
			return fmt.Errorf("%v returned, but it was never stored", p)
		}
		if maybe, _ := o.live(g, qs, qr); !maybe {
			return fmt.Errorf("%v returned, but it is not stored", p)
		}
	}
	var err error
	o.visit(r, func(g gridPoint) {
		if _, sure := o.live(g, qs, qr); err == nil && sure && in(g.p) && !seen[g.p] {
			err = fmt.Errorf("%v missing from the answer", g.p)
		}
	})
	return err
}

func (o *oracle) checkWindow(win geo.Rect, got []geo.Point, qs, qr int64) error {
	for _, p := range got {
		if !win.Contains(p) {
			return fmt.Errorf("window %v: %v lies outside", win, p)
		}
	}
	if err := o.checkResult(got, win, func(geo.Point) bool { return true }, qs, qr); err != nil {
		return fmt.Errorf("window %v: %w", win, err)
	}
	return nil
}

// checkKNN demands k answers (the data set holds far more than maxK
// points) and that every point that must be stored and lies strictly
// closer than the farthest answer is among them.
func (o *oracle) checkKNN(q geo.Point, k int, got []geo.Point, qs, qr int64) error {
	if len(got) != k {
		return fmt.Errorf("knn %v k=%d: %d answers", q, k, len(got))
	}
	var d2 float64
	for _, p := range got {
		d2 = max(d2, p.Dist2(q))
	}
	d := math.Sqrt(d2)
	box := geo.Rect{MinX: q.X - d, MinY: q.Y - d, MaxX: q.X + d, MaxY: q.Y + d}
	closer := func(p geo.Point) bool { return p.Dist2(q) < d2*(1-1e-12) }
	if err := o.checkResult(got, box, closer, qs, qr); err != nil {
		return fmt.Errorf("knn %v k=%d: %w", q, k, err)
	}
	return nil
}

// check judges one answered request.
func (o *oracle) check(x op, s *sample) error {
	switch x.kind {
	case opPoint:
		return o.checkPoint(x.pt, s.found, s.send, s.recv)
	case opWindow:
		return o.checkWindow(x.win, s.pts, s.send, s.recv)
	case opKNN:
		return o.checkKNN(x.pt, x.k, s.pts, s.send, s.recv)
	}
	return nil
}
