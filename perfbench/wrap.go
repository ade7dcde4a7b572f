package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aiac/internal/iterative"
)

// span is one timed call recorded by the traced run: a solve, or a call
// into a layer's public function made on that solve's behalf.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a solve span
	Run    string `json:"run"`    // one id per solve, shared by its spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Call spans are capped
// per solve (the cap bounds memory on million-update solves; the counters
// still see every call) and their overflow is counted.
type spanLog struct {
	origin  time.Time
	perCall int // call spans kept per solve

	kept    atomic.Int64 // call spans offered in the open solve
	dropped atomic.Int64 // call spans over the per-solve cap

	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newSpanLog(perCall int) *spanLog {
	return &spanLog{origin: time.Now(), perCall: perCall}
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.origin)) }

// beginSolve opens a solve span and resets the per-solve call-span budget.
func (l *spanLog) beginSolve(run, name string, start time.Time) int64 {
	l.kept.Store(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Run: run, Name: name, Start: l.since(start)})
	return l.nextID
}

func (l *spanLog) endSolve(id int64, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].ID == id {
			l.spans[i].End = l.since(end)
			return
		}
	}
}

// call records one wrapped call under the open solve span.
func (l *spanLog) call(parent int64, run, name string, start, end time.Time) {
	if l.kept.Add(1) > int64(l.perCall) {
		l.dropped.Add(1)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Run: run, Name: name,
		Start: l.since(start), End: l.since(end)})
}

// solveScope names the solve that wrapped calls currently belong to. The
// wrappers read it on every call; the runner swaps it between solves.
type solveScope struct {
	log    *spanLog
	parent int64
	run    string
}

// kernelCounters are the counting Problem wrapper's totals. All fields are
// updated atomically: vtime's parallel windows, rtime and loopback dist
// workers call Update from several goroutines at once.
type kernelCounters struct {
	updates atomic.Int64 // component updates (a fused pair counts two)
	newton  atomic.Int64 // summed work the kernel returned (Newton iterations)
	busyNS  atomic.Int64 // wall time inside Update/UpdatePair
}

// countingProblem measures the kernel from outside: it forwards every call
// to the wrapped problem and counts and times it. It forwards UpdatePair
// too, so the engine keeps the fused two-cell kernel it would use on the
// bare problem (a wrapper without it would make the benchmark measure a
// different program).
type countingProblem struct {
	iterative.Problem
	pair  iterative.PairUpdater
	c     *kernelCounters
	scope *atomic.Pointer[solveScope]
}

// wrapProblem returns p instrumented with c. p must implement
// iterative.PairUpdater (every benchmark problem is a Brusselator).
func wrapProblem(p iterative.Problem, c *kernelCounters, scope *atomic.Pointer[solveScope]) *countingProblem {
	return &countingProblem{Problem: p, pair: p.(iterative.PairUpdater), c: c, scope: scope}
}

func (w *countingProblem) account(cells int, work float64, start time.Time, name string) {
	end := time.Now()
	w.c.updates.Add(int64(cells))
	w.c.newton.Add(int64(work))
	w.c.busyNS.Add(int64(end.Sub(start)))
	if s := w.scope.Load(); s != nil {
		s.log.call(s.parent, s.run, name, start, end)
	}
}

func (w *countingProblem) Update(j int, old []float64, get func(i int) []float64, out []float64) float64 {
	start := time.Now()
	work := w.Problem.Update(j, old, get, out)
	w.account(1, work, start, "solver.Update")
	return work
}

func (w *countingProblem) UpdatePair(j1, j2 int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (float64, float64) {
	start := time.Now()
	w1, w2 := w.pair.UpdatePair(j1, j2, old1, old2, get, out1, out2)
	w.account(2, w1+w2, start, "solver.UpdatePair")
	return w1, w2
}

// wireCounters are the counting net.Conn wrapper's totals over every
// worker↔coordinator connection of the traced phase.
type wireCounters struct {
	bytesOut, bytesIn atomic.Int64
	writes, reads     atomic.Int64
	writeNS, readNS   atomic.Int64 // time inside Write / blocked in Read
}

// countingConn forwards to the worker's coordinator connection, counting
// and timing Read and Write.
type countingConn struct {
	net.Conn
	c     *wireCounters
	scope *atomic.Pointer[solveScope]
}

func (cc *countingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := cc.Conn.Write(b)
	end := time.Now()
	cc.c.writes.Add(1)
	cc.c.bytesOut.Add(int64(n))
	cc.c.writeNS.Add(int64(end.Sub(start)))
	if s := cc.scope.Load(); s != nil {
		s.log.call(s.parent, s.run, "dtime.conn.Write", start, end)
	}
	return n, err
}

func (cc *countingConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := cc.Conn.Read(b)
	end := time.Now()
	cc.c.reads.Add(1)
	cc.c.bytesIn.Add(int64(n))
	cc.c.readNS.Add(int64(end.Sub(start)))
	if s := cc.scope.Load(); s != nil {
		s.log.call(s.parent, s.run, "dtime.conn.Read", start, end)
	}
	return n, err
}
