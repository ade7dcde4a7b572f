// Command perfbench is the repository benchmark: it runs one named
// workload of solves for a fixed time, checks every solve against the
// sequential Brusselator reference, and prints the end-to-end metrics
// (--trace 0) or, from a separate traced run, the per-layer metrics
// (--trace 1). The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// It exits 1 when a deterministic check fails (a virtual-time solve off
// the reference, a result that does not repeat, an instrumented solve that
// differs from a bare one) and 2 on bad arguments. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
)

// buildDir holds everything a run leaves behind (dist run directories,
// span files, determinism records), relative to the checkout root.
const buildDir = ".bench_build"

// A run builds its inputs at least setupMinReps times and until
// setupMinTime has passed; setup_s is the median build time. A fine-modes
// build takes under a millisecond, so a fixed handful of builds would
// report the host's mood at one instant.
const (
	setupMinReps = 21
	setupMinTime = 500 * time.Millisecond
)

// refTol is the solution tolerance against brusselator.Reference, the one
// the cross-backend engine tests use.
const refTol = 1e-4

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: table1-grid, fine-modes or realtime-loopback")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("bad arguments")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		return 2
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runRoot, err := os.MkdirTemp(buildDir, "runs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runRoot)

	var (
		setups []float64
		round  []solve
	)
	for begin := time.Now(); len(setups) < setupMinReps || time.Since(begin) < setupMinTime; {
		t0 := time.Now()
		round, err = w.build(*seed)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
	}

	b := &bench{w: w, seed: *seed, round: round, runRoot: runRoot,
		budget: time.Duration(*seconds) * time.Second}
	var rep *report
	if *traced == 1 {
		rep = b.traced()
	} else {
		rep = b.endToEnd(median(setups))
		rep.note("setup_s: median of %d builds", len(setups))
	}
	b.checkRecord(rep)
	host := probeHost()
	if *traced == 1 {
		rep.metric("host.sweep_us", host.sweepUS, "us")
	}
	rep.print(w.name, *seed, *traced == 1, host)
	if !rep.correct {
		return 1
	}
	return 0
}

// bench runs one workload's rounds.
type bench struct {
	w       *workload
	seed    int64
	round   []solve
	runRoot string // parent of the dist run directories
	budget  time.Duration
}

// solveOut is one solve's outcome.
type solveOut struct {
	wall float64 // host seconds inside the engine call
	res  *engine.Result
	fail string // why the solve failed; "" when it passed
}

// outcome checks a finished solve: it must converge without timing out or
// erroring, and end within refTol of the reference everywhere.
func outcome(s *solve, res *engine.Result, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case res == nil:
		return "no result"
	case res.TimedOut:
		return "timed out"
	case !res.Converged:
		return fmt.Sprintf("did not converge (residual %g)", res.MaxResidual)
	case len(res.State) != len(s.ref):
		return fmt.Sprintf("state has %d components, reference %d", len(res.State), len(s.ref))
	}
	for j := range res.State {
		if len(res.State[j]) != len(s.ref[j]) {
			return fmt.Sprintf("component %d has %d values, reference %d", j, len(res.State[j]), len(s.ref[j]))
		}
	}
	if d := brusselator.MaxTrajDiff(res.State, s.ref); !(d <= refTol) {
		return fmt.Sprintf("off the reference by %g", d)
	}
	return ""
}

// tally accumulates the outcomes of a phase.
type tally struct {
	walls     []float64
	attempted int
	failed    int
	problems  []string // failure and check messages, reported on stderr
	correct   bool
}

func newTally() *tally { return &tally{correct: true} }

// add counts one solve. A failed solve on virtual time is a correctness
// failure of the run: it is deterministic, so it is a defect, not noise.
// Real-time failures (timeouts, false halts) are counted, never retried.
func (t *tally) add(s *solve, o solveOut) {
	t.attempted++
	t.walls = append(t.walls, o.wall)
	if o.fail == "" {
		return
	}
	t.failed++
	t.problems = append(t.problems, s.name+": "+o.fail)
	if s.backend == onVtime {
		t.correct = false
	}
}

func (t *tally) problem(format string, args ...any) {
	t.correct = false
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// roundVirtual sums a round's modelled makespans.
func roundVirtual(outs []solveOut) float64 {
	v := 0.0
	for _, o := range outs {
		if o.res != nil {
			v += o.res.Time
		}
	}
	return v
}

func roundIters(outs []solveOut) int64 {
	var n int64
	for _, o := range outs {
		if o.res != nil {
			n += int64(o.res.TotalIters)
		}
	}
	return n
}

// repeatRounds runs rounds of solves until the next one would overrun d
// (always at least one round), checking on virtual time that every round
// repeats the first bit for bit.
func (b *bench) repeatRounds(d time.Duration, solves []solve, tr *tracer, t *tally, phase string) [][]solveOut {
	var rounds [][]solveOut
	start := time.Now()
	for {
		r0 := time.Now()
		outs := make([]solveOut, len(solves))
		for i := range solves {
			run := fmt.Sprintf("%s-s%d-%s%d-%d", b.w.name, b.seed, phase, len(rounds), i)
			outs[i] = b.solve(&solves[i], tr, run)
			t.add(&solves[i], outs[i])
		}
		if len(rounds) > 0 {
			for i, o := range outs {
				if vtimeOnly(solves) && !reflect.DeepEqual(o.res, rounds[0][i].res) {
					t.problem("nondeterminism: %s round %d differs from round 0", solves[i].name, len(rounds))
				}
				// Only round 0 keeps its states, so memory does not grow
				// with the number of rounds a host fits in the budget.
				if o.res != nil {
					o.res.State = nil
				}
			}
		}
		rounds = append(rounds, outs)
		if time.Since(start)+time.Since(r0) > d {
			return rounds
		}
	}
}

// endToEnd is the untraced run: nothing is attached to the program.
func (b *bench) endToEnd(setup float64) *report {
	t := newTally()
	rounds := b.repeatRounds(b.budget, b.round, nil, t, "e2e")
	// Per-round figures, reported as medians over the run's rounds so a
	// burst of host contention moves one round, not the result.
	var perSolve, virtual []float64
	for _, outs := range rounds {
		walls := make([]float64, len(outs))
		for i, o := range outs {
			walls[i] = o.wall
		}
		perSolve = append(perSolve, mean(walls))
		virtual = append(virtual, roundVirtual(outs))
	}
	rep := &report{tally: t, rounds: len(rounds), det: &detRecord{
		VirtualS: roundVirtual(rounds[0]), EngineIters: roundIters(rounds[0]),
	}}
	rep.metric("solve_s", median(perSolve), "s")
	p90 := median(perSolve)
	if b.w.tail {
		p90 = quantile(t.walls, 0.9)
	}
	rep.metric("solve_s_p90", p90, "s")
	rep.metric("setup_s", setup, "s")
	rep.metric("virtual_s", median(virtual), "model_s")
	rep.metric("ok_frac", 1-float64(t.failed)/float64(t.attempted), "ratio")
	rep.metric("peak_rss_mb", peakRSSMB(), "MB")
	iters := rep.det.EngineIters
	rep.note("round 0: %d engine iterations, %.4g ms wall per 1000 iterations",
		iters, 1e6*ratio(perSolve[0]*float64(len(rounds[0])), float64(iters)))
	if b.w.tail {
		rep.note("solve_s_p90 over all %d solves", t.attempted)
	} else {
		rep.note("solve_s_p90 repeats solve_s: %d solves are too few for a tail (their p90 is %.4g s)",
			t.attempted, quantile(t.walls, 0.9))
	}
	return rep
}

// report is a run's result: the tally, the metrics in print order, and
// the figures the determinism record compares across runs.
type report struct {
	*tally
	rounds  int
	names   []string
	metrics map[string]jsonMetric
	notes   []string
	det     *detRecord
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) metric(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]jsonMetric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is %v", name, v)
		v = 0
	}
	r.names = append(r.names, name)
	r.metrics[name] = jsonMetric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(workload string, seed int64, traced bool, h hostInfo) {
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d (%s): %d round(s), %d solves, %d failed\n",
		workload, seed, mode, r.rounds, r.attempted, r.failed)
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s host.sweep_us=%.2f\n",
		h.nproc, h.gomaxprocs, h.cpu, runtime.Version(), h.sweepUS)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Println(string(out))
}

// detRecord is what must repeat exactly across runs of one seed on the
// virtual-time workloads: the first round's summed makespan and engine
// iterations, and (traced runs) its kernel updates.
type detRecord struct {
	VirtualS      float64 `json:"virtual_s"`
	EngineIters   int64   `json:"engine_iters"`
	SolverUpdates int64   `json:"solver_updates,omitempty"`
}

// checkRecord compares this run's determinism record with the one an
// earlier run of the same binary, workload and seed left in the build
// directory, and stores the union. Drift is reported as nondeterminism.
func (b *bench) checkRecord(rep *report) {
	if !vtimeOnly(b.round) || rep.det == nil {
		return
	}
	id, err := executableID()
	if err != nil {
		rep.note("determinism record skipped: %v", err)
		return
	}
	dir := filepath.Join(buildDir, "records", id)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	cur := *rep.det
	if raw, err := os.ReadFile(path); err == nil {
		var prev detRecord
		if err := json.Unmarshal(raw, &prev); err != nil {
			rep.note("determinism record %s unreadable: %v", path, err)
		} else {
			if prev.VirtualS != cur.VirtualS || prev.EngineIters != cur.EngineIters {
				rep.problem("nondeterminism: seed %d gave virtual_s %v, engine iters %d; an earlier run gave %v, %d",
					b.seed, cur.VirtualS, cur.EngineIters, prev.VirtualS, prev.EngineIters)
			}
			if prev.SolverUpdates != 0 && cur.SolverUpdates != 0 && prev.SolverUpdates != cur.SolverUpdates {
				rep.problem("nondeterminism: seed %d gave %d kernel updates; an earlier run gave %d",
					b.seed, cur.SolverUpdates, prev.SolverUpdates)
			}
			if cur.SolverUpdates == 0 {
				cur.SolverUpdates = prev.SolverUpdates
			}
		}
	}
	raw, _ := json.Marshal(cur)
	tmp := path + ".tmp"
	err = os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(tmp, raw, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		rep.note("determinism record not stored: %v", err)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), &kb)
			return kb / 1024
		}
	}
	return 0
}
