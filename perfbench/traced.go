package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"aiac/internal/engine"
)

// spansPerSolve caps the wrapped-call spans kept per solve.
const spansPerSolve = 512

// tracer is everything the traced phase attaches to the program, and what
// it collected.
type tracer struct {
	kernel kernelCounters
	wire   wireCounters
	log    *spanLog
	scope  atomic.Pointer[solveScope]
	open   int64 // the solve span in progress

	verifyRounds int64
	haltLags     []float64 // model seconds from the last local convergence to halt
	simEvents    int64
	simWindows   int64
	simWidths    []float64
}

func (tr *tracer) begin(run, name string, start time.Time) {
	tr.open = tr.log.beginSolve(run, name, start)
	tr.scope.Store(&solveScope{log: tr.log, parent: tr.open, run: run})
}

func (tr *tracer) end(t time.Time) {
	tr.scope.Store(nil)
	tr.log.endSolve(tr.open, t)
}

// observe reads one finished solve's metrics sinks: detector rounds, the
// halt lag, and the parallel scheduler's manifest.
func (tr *tracer) observe(s *solve, res *engine.Result, obs *solveObservers) {
	lastConv, halt := math.NaN(), math.NaN()
	for _, sink := range obs.sinks {
		evs, _ := sink.Events()
		for _, e := range evs {
			switch e.Name {
			case "verify-round":
				tr.verifyRounds++
			case "conv":
				if math.IsNaN(lastConv) || e.T > lastConv {
					lastConv = e.T
				}
			case "halt":
				halt = e.T
			}
		}
		if sim := sink.Manifest.Sim; sim != nil {
			tr.simEvents += sim.Events
			tr.simWindows += sim.Windows
			if sim.Windows > 0 {
				tr.simWidths = append(tr.simWidths, sim.MeanWindowWidth)
			}
		}
	}
	if math.IsNaN(halt) && res != nil { // ring detection halts without a detector
		halt = res.Time
	}
	if !math.IsNaN(lastConv) && !math.IsNaN(halt) {
		tr.haltLags = append(tr.haltLags, halt-lastConv)
	}
}

// traced is the traced run. It first times the workload's probe solves
// bare for a quarter of the budget, then runs whole rounds with every
// observer attached — the counting Problem and net.Conn wrappers, a
// metrics.Sink and a trace.Log per solve, a CPU profile, and spans — and
// derives the per-layer metrics.
func (b *bench) traced() *report {
	t := newTally()
	start := time.Now()
	probe := b.round[:b.w.probe]

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bare := b.repeatRounds(b.budget/4, probe, nil, t, "bare")
	runtime.ReadMemStats(&ms1)
	bareSolves := float64(len(bare) * len(probe))

	tr := &tracer{log: newSpanLog(spansPerSolve)}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.problem("cpu profile: %v", err)
	}
	rounds := b.repeatRounds(b.budget-time.Since(start), b.round, tr, t, "traced")
	pprof.StopCPUProfile()
	nr := float64(len(rounds))

	rep := &report{tally: t, rounds: len(bare) + len(rounds)}
	vtime := vtimeOnly(b.round)
	if vtime {
		for i := range probe {
			if !reflect.DeepEqual(rounds[0][i].res, bare[0][i].res) {
				t.problem("instrumented %s differs from the bare solve", probe[i].name)
			}
		}
	}

	var wall, iters, boundary, suppressed float64
	var transfers, rejects, moved, retries float64
	var distSolves, distIters float64
	for _, outs := range rounds {
		for i, o := range outs {
			wall += o.wall
			if o.res == nil {
				continue
			}
			iters += float64(o.res.TotalIters)
			boundary += float64(o.res.BoundaryMsgs)
			suppressed += float64(o.res.SuppressedSnd)
			transfers += float64(o.res.LBTransfers)
			rejects += float64(o.res.LBRejects)
			moved += float64(o.res.LBCompsMoved)
			retries += float64(o.res.LBRetries)
			if b.round[i].backend == onDist {
				distSolves++
				distIters += float64(o.res.TotalIters)
			}
		}
	}
	// Kernel, through the counting Problem wrapper.
	updates := tr.kernel.updates.Load()
	busy := float64(tr.kernel.busyNS.Load()) / 1e9
	rep.metric("solver.updates", float64(updates)/nr, "count")
	rep.metric("solver.newton_iters", float64(tr.kernel.newton.Load())/nr, "count")
	rep.metric("solver.busy_s", busy/nr, "s")
	rep.metric("solver.ns_per_update", ratio(float64(tr.kernel.busyNS.Load()), float64(updates)), "ns")
	rep.metric("solver.share", ratio(busy, wall), "ratio")
	// Computed, not measured: an update reads its own and 2·halo neighbour
	// trajectories and writes one (every round shares one problem).
	prob := b.round[0].cfg.Problem
	bytesPerUpdate := float64((2+2*prob.Halo())*prob.TrajLen()) * 8
	rep.metric("solver.mb_computed", float64(updates)*bytesPerUpdate/1e6/nr, "MB")

	// Engine and load balancing, from the Results.
	rep.metric("engine.iters", iters/nr, "count")
	rep.metric("engine.boundary_msgs", boundary/nr, "count")
	rep.metric("engine.suppressed_sends", suppressed/nr, "count")
	rep.metric("loadbalance.transfers", transfers/nr, "count")
	rep.metric("loadbalance.rejects", rejects/nr, "count")
	rep.metric("loadbalance.comps_moved", moved/nr, "count")
	rep.metric("loadbalance.retries", retries/nr, "count")
	rep.metric("loadbalance.accept_frac", ratio(transfers, transfers+rejects), "ratio")
	rep.metric("lb_gain", lbGain(b.round, rounds[0]), "ratio")

	// Detection and the virtual-time scheduler, from the metrics sinks.
	rep.metric("detect.rounds", float64(tr.verifyRounds)/nr, "count")
	rep.metric("detect.halt_lag_s", mean(tr.haltLags), "model_s")
	rep.metric("vtime.events", float64(tr.simEvents)/nr, "count")
	rep.metric("vtime.windows", float64(tr.simWindows)/nr, "count")
	rep.metric("vtime.mean_window_s", mean(tr.simWidths), "model_s")
	rep.metric("vtime.par_speedup", b.parSpeedup(probe, bare, t), "ratio")

	// The Go runtime, over the bare probe phase.
	rep.metric("goruntime.alloc_mb_per_solve", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/bareSolves, "MB")
	rep.metric("goruntime.gc_cycles_per_solve", float64(ms1.NumGC-ms0.NumGC)/bareSolves, "count")

	// Observers and transport.
	rep.metric("trace.overhead", probeWall(rounds, len(probe))/probeWall(bare, len(probe))-1, "ratio")
	rep.metric("dtime.relay_tax", relayTax(probe, bare), "ratio")
	wireBytes := float64(tr.wire.bytesIn.Load() + tr.wire.bytesOut.Load())
	rep.metric("dtime.wire_bytes_per_solve", ratio(wireBytes, distSolves), "bytes")
	rep.metric("dtime.wire_writes_per_solve", ratio(float64(tr.wire.writes.Load()), distSolves), "count")
	rep.metric("dtime.wire_bytes_per_iter", ratio(wireBytes, distIters), "bytes")
	rep.metric("dtime.write_busy_s", ratio(float64(tr.wire.writeNS.Load())/1e9, distSolves), "s")
	rep.metric("dtime.read_wait_s", ratio(float64(tr.wire.readNS.Load())/1e9, distSolves), "s")

	// The CPU-profile layer budget.
	stacks, err := profileStacks(prof.Bytes())
	if err != nil {
		t.problem("%v", err)
	}
	bud := layerBudget(stacks)
	sum := 0.0
	for _, l := range layers {
		rep.metric(l+".self_share", bud.share[l], "ratio")
		sum += bud.share[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.problem("layer self-shares sum to %v over %d samples", sum, bud.samples)
	}
	rep.metric("goruntime.handoff_share", bud.handoff, "ratio")
	rep.metric("goruntime.gc_share", bud.gc, "ratio")
	rep.note("cpu profile: %d samples; top functions by attributed self time:", bud.samples)
	for _, lf := range topFuncs(bud.byFunc, 12) {
		layer, class, _ := classifyStack([]string{lf.name})
		rep.note("  %6.2f%%  %-11s %-8s %s", 100*float64(lf.n)/float64(bud.samples), layer, class, lf.name)
	}

	if vtime {
		if updates%int64(len(rounds)) != 0 {
			t.problem("nondeterminism: %d kernel updates over %d identical rounds", updates, len(rounds))
		}
		rep.det = &detRecord{VirtualS: roundVirtual(rounds[0]), EngineIters: roundIters(rounds[0]),
			SolverUpdates: updates / int64(len(rounds))}
	}
	if err := b.writeSpans(tr.log); err != nil {
		rep.note("spans not written: %v", err)
	}
	rep.note("spans: %d kept, %d call spans over the per-solve cap of %d",
		len(tr.log.spans), tr.log.dropped.Load(), spansPerSolve)
	return rep
}

type funcCount struct {
	name string
	n    int64
}

// topFuncs returns the k functions with the most samples.
func topFuncs(byFunc map[string]int64, k int) []funcCount {
	all := make([]funcCount, 0, len(byFunc))
	for name, n := range byFunc {
		all = append(all, funcCount{name, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].name < all[j].name
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeWall is the mean wall time of the first n solves of each round.
func probeWall(rounds [][]solveOut, n int) float64 {
	var walls []float64
	for _, outs := range rounds {
		for _, o := range outs[:n] {
			walls = append(walls, o.wall)
		}
	}
	return mean(walls)
}

// lbGain is the paper's Table 1 ratio over one round: the summed virtual
// makespans of its LB-off solves over those of its LB-on solves (0 when the
// round has no LB contrast).
func lbGain(round []solve, outs []solveOut) float64 {
	var off, on float64
	for i, s := range round {
		if outs[i].res == nil {
			continue
		}
		switch s.lb {
		case "off":
			off += outs[i].res.Time
		case "on":
			on += outs[i].res.Time
		}
	}
	return ratio(off, on)
}

// relayTax is the mean wall time of the probe's loopback dist solves over
// that of the same configurations on in-process rtime (0 without both).
func relayTax(probe []solve, rounds [][]solveOut) float64 {
	var dist, rt []float64
	for _, outs := range rounds {
		for i, o := range outs {
			switch probe[i].backend {
			case onDist:
				dist = append(dist, o.wall)
			case onRtime:
				rt = append(rt, o.wall)
			}
		}
	}
	return ratio(mean(dist), mean(rt))
}

// parSpeedup reruns the probe solves on the sequential virtual-time
// scheduler when they ran on the parallel one, checks the results are
// bit-identical, and returns sequential ÷ parallel wall time (0 when the
// probe is not parallel).
func (b *bench) parSpeedup(probe []solve, bare [][]solveOut, t *tally) float64 {
	seq := make([]solve, 0, len(probe))
	for _, s := range probe {
		if s.backend != onVtime || s.cfg.SimWorkers <= 1 {
			return 0
		}
		s.cfg.SimWorkers = 1
		seq = append(seq, s)
	}
	wall := 0.0
	for i := range seq {
		o := b.solve(&seq[i], nil, fmt.Sprintf("%s-s%d-seq-%d", b.w.name, b.seed, i))
		t.add(&seq[i], o)
		if !reflect.DeepEqual(o.res, bare[0][i].res) {
			t.problem("%s on the sequential scheduler differs from the parallel one", seq[i].name)
		}
		wall += o.wall
	}
	return wall / (probeWall(bare, len(probe)) * float64(len(probe)))
}

// writeSpans writes the span log as JSON lines to the build directory.
func (b *bench) writeSpans(l *spanLog) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
