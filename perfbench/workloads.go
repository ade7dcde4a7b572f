package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/rtime"
)

// Backends a solve can run on.
const (
	onVtime = "vtime" // deterministic virtual time, in process
	onRtime = "rtime" // real time, in process
	onDist  = "dist"  // real time, 2 loopback workers over TCP
)

// rtSpeedup is the model-to-wall scale of the real-time solves. At 10 the
// loopback dist solves still take several times as long as the same
// configuration on rtime, so their extra time is the transport, while the
// modelled sleeps keep the whole round half as sensitive to a contended
// host as at 50 (on a 2-vCPU VM a CPU hog adds 20% to solve_s, against
// 39% at 50).
const rtSpeedup = 10

// fineClusters and rtClusters are how many noisy-cluster draws one
// fine-modes or realtime-loopback round runs its four solves on. A node
// that is busy at the start of a short solve stays busy through most of
// it, so a single draw moves a round's work by 10–25% from one seed to the
// next; several draws per round average that out.
const (
	fineClusters = 4
	rtClusters   = 6
)

// table1Pairs is how many Table 1 pairs (LB off, LB on) one round of
// table1-grid runs, each on its own multi-user load draw. One pair's
// makespans swing by ±25% between load draws; averaging a few per round is
// what keeps a run's figures steady from one seed to the next.
const table1Pairs = 5

// solve is one engine run of a round.
type solve struct {
	name    string
	backend string
	cfg     engine.Config
	ref     [][]float64 // brusselator.Reference trajectory of cfg.Problem
	// lb marks the two halves of an LB contrast ("off", "on"); their
	// virtual makespans give lb_gain.
	lb string
}

// workload is a named benchmark input: build makes one round of solves
// from the seed; a run repeats the round.
type workload struct {
	name  string
	build func(seed int64) ([]solve, error)
	// probe is the number of leading solves of a round the traced run
	// also times without observers (tracing overhead, bit-identity, and
	// the parallel-scheduler speed-up on table1-grid).
	probe int
	// tail marks a workload whose runs have enough solves (at least 100,
	// so ten lie beyond the 90th percentile) for solve_s_p90 to be a
	// per-solve tail. table1-grid runs ten solves; there it repeats
	// solve_s, since the key must be printed on every workload.
	tail bool
}

var workloads = []workload{
	{name: "table1-grid", build: buildTable1, probe: 2},
	{name: "fine-modes", build: buildFineModes, probe: 4, tail: true},
	{name: "realtime-loopback", build: buildRealtime, probe: 4, tail: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// vtimeOnly reports whether every solve of the round runs on virtual time,
// where results must repeat bit for bit.
func vtimeOnly(round []solve) bool {
	for _, s := range round {
		if s.backend != onVtime {
			return false
		}
	}
	return true
}

// lbPolicy is the balancing policy of the paper experiments
// (internal/experiments): period 20, MinKeep 2, smoothing 0.2.
func lbPolicy() loadbalance.Policy {
	pol := loadbalance.DefaultPolicy()
	pol.Period = 20
	pol.MinKeep = 2
	pol.Smoothing = 0.2
	return pol
}

func brussProblem(n int, dt, horizon float64) (*brusselator.Problem, [][]float64, error) {
	p := brusselator.DefaultParams(n, dt)
	p.T = horizon
	ref, _, err := brusselator.Reference(p)
	if err != nil {
		return nil, nil, fmt.Errorf("reference n=%d: %w", n, err)
	}
	return brusselator.New(p), ref, nil
}

// noisyHomogeneous is the Figure 5 cluster model: identical machines, each
// with an independent light on/off background load (15% of the time at
// half speed), drawn from seed up to horizon model seconds.
func noisyHomogeneous(p int, seed int64, horizon float64) *grid.Cluster {
	const duty, busyFactor, meanIdle = 0.15, 0.5, 20.0
	cl := grid.Homogeneous(p)
	rng := rand.New(rand.NewSource(seed))
	for i := range cl.Nodes {
		cl.Nodes[i].Load = grid.MultiUserTrace(rng, horizon, meanIdle, meanIdle*duty/(1-duty), busyFactor)
	}
	return cl
}

// buildTable1 is the Table 1 pair exactly as experiments.Table1 builds one
// Quick repeat (AIAC without, then with LB, on the 15-machine 3-site grid
// under multi-user load; Brusselator n=240, T=0.5, dt=0.005, tol 1e-6),
// on the parallel virtual-time scheduler with one worker per CPU. Pair i
// draws its load traces and engine seed from seed + i·7919.
func buildTable1(seed int64) ([]solve, error) {
	prob, ref, err := brussProblem(240, 0.005, 0.5)
	if err != nil {
		return nil, err
	}
	var round []solve
	for i := int64(0); i < table1Pairs; i++ {
		s := seed + i*7919
		cfg := engine.Config{
			Mode:       engine.AIAC,
			P:          15,
			Problem:    prob,
			Cluster:    grid.HeteroGrid15(grid.HeteroGridConfig{Seed: s, MultiUser: true}),
			Tol:        1e-6,
			MaxIter:    200000,
			MaxTime:    100000,
			Seed:       s,
			SimWorkers: runtime.NumCPU(),
		}
		withLB := cfg
		withLB.LB = lbPolicy()
		round = append(round,
			solve{name: fmt.Sprintf("aiac/load%d", s), backend: onVtime, cfg: cfg, ref: ref, lb: "off"},
			solve{name: fmt.Sprintf("aiac-lb/load%d", s), backend: onVtime, cfg: withLB, ref: ref, lb: "on"})
	}
	return round, nil
}

// buildFineModes is four short solves, one per execution mode and
// detector, on 32 ranks of a noisy homogeneous cluster: Brusselator n=64
// (two cells per rank) with 4 Euler steps per sweep, tol 1e-7, on the
// sequential virtual-time scheduler, repeated on fineClusters cluster
// draws (draw d from seed + d·7919). No LB: at this grain it makes no
// transfers.
func buildFineModes(seed int64) ([]solve, error) {
	prob, ref, err := brussProblem(64, 0.02, 0.08)
	if err != nil {
		return nil, err
	}
	modes := []struct {
		name string
		mode engine.Mode
		det  engine.Detection
	}{
		{"sisc", engine.SISC, engine.DetectCentral},
		{"siac", engine.SIAC, engine.DetectCentral},
		{"aiac-central", engine.AIAC, engine.DetectCentral},
		{"aiac-ring", engine.AIAC, engine.DetectRing},
	}
	var round []solve
	for d := int64(0); d < fineClusters; d++ {
		s := seed + d*7919
		base := engine.Config{
			P: 32, Problem: prob, Cluster: noisyHomogeneous(32, s, 1000), Tol: 1e-7,
			MaxIter: 200000, MaxTime: 1000, Seed: s,
		}
		for _, m := range modes {
			cfg := base
			cfg.Mode, cfg.Detection = m.mode, m.det
			round = append(round, solve{name: fmt.Sprintf("%s/load%d", m.name, s), backend: onVtime, cfg: cfg, ref: ref})
		}
	}
	return round, nil
}

// buildRealtime is one configuration — Brusselator n=64, T=0.6, dt=0.02 on 4
// ranks of a noisy homogeneous cluster — in SISC and in AIAC with LB, each
// run in process on rtime and as a 2-worker loopback dist solve, on
// rtClusters cluster draws (draw d from seed + d·7919).
func buildRealtime(seed int64) ([]solve, error) {
	prob, ref, err := brussProblem(64, 0.02, 0.6)
	if err != nil {
		return nil, err
	}
	var round []solve
	for d := int64(0); d < rtClusters; d++ {
		s := seed + d*7919
		base := engine.Config{
			P: 4, Problem: prob, Cluster: noisyHomogeneous(4, s, 5000), Tol: 1e-7,
			MaxIter: 500000,
			MaxTime: 100, // model seconds: a 10 s wall watchdog at rtSpeedup
			Seed:    s,
		}
		sisc := base
		sisc.Mode = engine.SISC
		aiacLB := base
		aiacLB.Mode = engine.AIAC
		aiacLB.LB = lbPolicy()
		for _, c := range []struct {
			name string
			cfg  engine.Config
		}{{"sisc", sisc}, {"aiac-lb", aiacLB}} {
			rt := c.cfg
			rt.Runner = rtime.Runner{Speedup: rtSpeedup}
			name := fmt.Sprintf("%s/load%d", c.name, s)
			round = append(round,
				solve{name: "rtime/" + name, backend: onRtime, cfg: rt, ref: ref},
				solve{name: "dist/" + name, backend: onDist, cfg: c.cfg, ref: ref})
		}
	}
	return round, nil
}
