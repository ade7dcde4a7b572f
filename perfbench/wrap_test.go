package main

import (
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/iterative"
)

var _ iterative.PairUpdater = (*countingProblem)(nil)

// The instrumented program must be the program: a vtime solve with the
// counting Problem wrapper, a metrics sink and a trace log attached returns
// a Result bit-identical to the bare solve — on the sequential scheduler
// (every fine-modes solve) and on the parallel one, where the wrapper is
// called from several goroutines at once.
func TestWrappedSolveIsBitIdentical(t *testing.T) {
	round, err := buildFineModes(3)
	if err != nil {
		t.Fatal(err)
	}
	round = round[:4] // one load draw: every mode and detector once
	prob, ref, err := brussProblem(60, 0.01, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	par := engine.Config{
		Mode: engine.AIAC, P: 15, Problem: prob, Tol: 1e-8, MaxIter: 200000, MaxTime: 100000, Seed: 9,
		Cluster:    grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 9, MultiUser: true}),
		LB:         lbPolicy(),
		SimWorkers: 4,
	}
	round = append(round, solve{name: "parallel-aiac-lb", backend: onVtime, cfg: par, ref: ref})

	b := &bench{w: &workload{name: "test"}}
	for i := range round {
		s := &round[i]
		bare := b.solve(s, nil, "bare")
		tr := &tracer{log: newSpanLog(spansPerSolve)}
		traced := b.solve(s, tr, "traced")
		if bare.fail != "" || traced.fail != "" {
			t.Fatalf("%s: bare %q, traced %q", s.name, bare.fail, traced.fail)
		}
		if !reflect.DeepEqual(bare.res, traced.res) {
			t.Errorf("%s: instrumented result differs from the bare one", s.name)
		}
		if tr.kernel.updates.Load() == 0 || tr.kernel.newton.Load() == 0 {
			t.Errorf("%s: kernel counters saw nothing", s.name)
		}
		// The engine must have kept its fused two-cell kernel.
		pairs := 0
		for _, sp := range tr.log.spans {
			if sp.Name == "solver.UpdatePair" {
				pairs++
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no UpdatePair calls went through the wrapper", s.name)
		}
	}
}

// A traced loopback dist solve still converges to the reference, and the
// counting conn sees the frames both ways.
func TestCountingConnOnDistSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback dist solve")
	}
	round, err := buildRealtime(1)
	if err != nil {
		t.Fatal(err)
	}
	round = round[:4] // one load draw: SISC and AIAC+LB, rtime and dist
	b := &bench{w: &workload{name: "test"}, runRoot: t.TempDir()}
	for i := range round {
		s := &round[i]
		if s.backend != onDist {
			continue
		}
		tr := &tracer{log: newSpanLog(spansPerSolve)}
		o := b.solve(s, tr, "traced")
		if o.fail != "" {
			t.Fatalf("%s: %s", s.name, o.fail)
		}
		w := &tr.wire
		if w.writes.Load() == 0 || w.bytesOut.Load() == 0 || w.bytesIn.Load() == 0 {
			t.Errorf("%s: wire counters writes=%d out=%d in=%d", s.name,
				w.writes.Load(), w.bytesOut.Load(), w.bytesIn.Load())
		}
	}
}

func TestCountingConnForwards(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var wc wireCounters
	var scope atomic.Pointer[solveScope]
	log := newSpanLog(1)
	scope.Store(&solveScope{log: log, parent: log.beginSolve("r", "s", time.Now()), run: "r"})
	cc := &countingConn{Conn: a, c: &wc, scope: &scope}
	go func() {
		buf := make([]byte, 5)
		n, _ := b.Read(buf)
		b.Write(buf[:n])
	}()
	if _, err := cc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := cc.Read(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	if wc.writes.Load() != 1 || wc.reads.Load() != 1 || wc.bytesOut.Load() != 5 || wc.bytesIn.Load() != 5 {
		t.Fatalf("counters %+v", &wc)
	}
	// One call span kept under the cap of 1, the other counted as dropped.
	if len(log.spans) != 2 || log.dropped.Load() != 1 {
		t.Fatalf("spans %d, dropped %d", len(log.spans), log.dropped.Load())
	}
}
