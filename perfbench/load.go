package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsi/internal/geo"
)

// target is the five-operation surface the generator drives: a
// client.TCP connection, or the engine itself in the traced replay.
type target interface {
	PointQuery(geo.Point) (bool, error)
	WindowQuery(geo.Rect) ([]geo.Point, error)
	KNN(geo.Point, int) ([]geo.Point, error)
	Insert(geo.Point) (bool, error)
	Delete(geo.Point) (bool, error)
}

// sample is one answered request. Times are ns since the run epoch.
type sample struct {
	start int64 // latency counts from here
	send  int64 // the call was made
	recv  int64 // the answer arrived
	slack int64 // oversleep past the due time of an idle connection; -1 if it was busy
	found bool
	pts   []geo.Point
	err   error
}

func (s *sample) latency() time.Duration { return time.Duration(s.recv - s.start) }

// phase is the outcome of one loop over a slice of the tape.
type phase struct {
	samples []sample // by op index
	wall    time.Duration
	late    time.Duration // send time of the last open-loop request past its due time (the worst slice's)
	aborted bool          // the open loop fell abortLate behind and stopped sending
	starts  []int         // sample index where each round's slice starts, plus the end
}

// abortLate stops an open loop that has fallen this far behind its
// schedule: the offered rate is no longer being offered, so the run is
// invalid, and going on would only stretch it.
const abortLate = time.Second

var errSkipped = errors.New("not sent: the open loop was aborted")

func since(epoch time.Time) int64 { return int64(time.Since(epoch)) }

// call issues one request on c.
func call(c target, o op, s *sample) {
	switch o.kind {
	case opPoint:
		s.found, s.err = c.PointQuery(o.pt)
	case opWindow:
		s.pts, s.err = c.WindowQuery(o.win)
	case opKNN:
		s.pts, s.err = c.KNN(o.pt, o.k)
	case opInsert:
		_, s.err = c.Insert(o.pt)
	case opDelete:
		_, s.err = c.Delete(o.pt)
	}
}

// drive runs ops over conns with one sending goroutine per connection;
// each takes the next op of the tape. In the open loop an op is due at
// its arrival offset from the phase start: a connection that is idle
// sleeps until then and its latency counts from its wake-up (the timer
// oversleep is the generator's, recorded as slack); a connection still
// busy at the due time sends at once and its latency counts from the
// due time, because that stall is the system's. In the closed loop each
// op is sent as soon as its connection is free.
func drive(conns []target, ops []op, open bool, epoch time.Time) phase {
	ph := phase{samples: make([]sample, len(ops))}
	begin := time.Now()
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c target) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &ph.samples[i]
				s.slack = -1
				if aborted.Load() {
					s.err = errSkipped
					continue
				}
				if open {
					due := begin.Add(ops[i].due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
						s.start = since(epoch)
						s.slack = s.start - int64(due.Sub(epoch))
					} else {
						s.start = int64(due.Sub(epoch))
						if -d > abortLate {
							aborted.Store(true)
						}
					}
				}
				s.send = since(epoch)
				if !open {
					s.start = s.send
				}
				call(c, ops[i], s)
				s.recv = since(epoch)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(begin)
	ph.aborted = aborted.Load()
	if open && len(ops) > 0 {
		last := len(ops) - 1
		ph.late = time.Duration(ph.samples[last].send - int64(begin.Add(ops[last].due).Sub(epoch)))
	}
	return ph
}

// rounds splits the timed phases: each round is a slice of the open
// loop followed by a slice of the closed loop, so that each phase
// samples the machine at several moments of a run rather than one.
// The slices are op counts, so state drift is the same in every run.
const rounds = 4

// timed runs the open and closed loop of t in rounds over conns,
// calling after at the end of every slice with its round and phase.
func timed(conns []target, t *tape, epoch time.Time, after func(round int, name string) error) (open, closed phase, err error) {
	open.starts, closed.starts = []int{0}, []int{0}
	for i := 0; i < rounds; i++ {
		oa, ob := i*len(t.open)/rounds, (i+1)*len(t.open)/rounds
		var base time.Duration
		if oa > 0 {
			base = t.open[oa-1].due
		}
		part := append([]op(nil), t.open[oa:ob]...)
		for j := range part {
			part[j].due -= base
		}
		open.add(drive(conns, part, true, epoch))
		if err := after(i, "open"); err != nil {
			return open, closed, err
		}
		closed.add(drive(conns, t.closed[i*len(t.closed)/rounds:(i+1)*len(t.closed)/rounds], false, epoch))
		if err := after(i, "closed"); err != nil {
			return open, closed, err
		}
	}
	return open, closed, nil
}

// add appends one round's slice to a phase.
func (p *phase) add(slice phase) {
	p.samples = append(p.samples, slice.samples...)
	p.starts = append(p.starts, len(p.samples))
	p.wall += slice.wall
	p.late = max(p.late, slice.late)
	p.aborted = p.aborted || slice.aborted
}

// serial issues ops one at a time on c, timing each from its send.
func serial(c target, ops []op, epoch time.Time) []sample {
	out := make([]sample, len(ops))
	for i, o := range ops {
		timeOne(c, o, &out[i], epoch)
	}
	return out
}

// timeOne issues one request on an idle connection and times it from
// its send.
func timeOne(c target, o op, s *sample, epoch time.Time) {
	s.slack = -1
	s.send = since(epoch)
	s.start = s.send
	call(c, o, s)
	s.recv = since(epoch)
}

// noteWrites records the send and acknowledgement times of every write
// of a phase in the oracle. A failed write stays unacknowledged, so
// its point may or may not be stored from its send on.
func (o *oracle) noteWrites(ops []op, samples []sample) {
	for i, x := range ops {
		if !x.kind.write() {
			continue
		}
		w := o.note(x.kind, x.pt, samples[i].send)
		if samples[i].err == nil {
			w.ack = samples[i].recv
		}
	}
}

// checkPhase judges every answered read of a phase and returns the
// first mismatch, naming the op.
func (o *oracle) checkPhase(name string, ops []op, samples []sample) error {
	for i, x := range ops {
		if x.kind.write() || samples[i].err != nil {
			continue
		}
		if err := o.check(x, &samples[i]); err != nil {
			return fmt.Errorf("oracle mismatch in %s op %d: %w", name, i, err)
		}
	}
	return nil
}
