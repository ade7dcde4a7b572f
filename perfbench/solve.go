package main

import (
	"net"
	"os"
	"sync"
	"time"

	"aiac/internal/dtime"
	"aiac/internal/engine"
	"aiac/internal/metrics"
	"aiac/internal/trace"
)

// traceCap bounds each solve's trace.Log: a Table 1 solve emits ~10⁶
// events, more than a benchmark should hold in memory. Events past the cap
// are counted by the log, not stored.
const traceCap = 1 << 18

// solve runs one solve, with tr's observers attached when tr is non-nil.
// Only the engine call is timed.
func (b *bench) solve(s *solve, tr *tracer, run string) solveOut {
	cfg := s.cfg
	var obs *solveObservers
	if tr != nil {
		cfg.Problem = wrapProblem(cfg.Problem, &tr.kernel, &tr.scope)
		obs = &solveObservers{}
		cfg.Metrics = obs.newSink()
		cfg.Trace = newTraceLog()
	}
	var (
		res *engine.Result
		err error
		dir string
	)
	start := time.Now()
	if tr != nil {
		tr.begin(run, s.name, start)
	}
	if s.backend == onDist {
		res, dir, err = b.dist(cfg, tr, obs)
	} else {
		res, err = engine.Run(cfg)
	}
	end := time.Now()
	if tr != nil {
		tr.end(end)
		tr.observe(s, res, obs)
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
	return solveOut{wall: end.Sub(start).Seconds(), res: res, fail: outcome(s, res, err)}
}

// dist runs cfg as a loopback distributed solve: two worker goroutines
// joined to the coordinator over TCP, exactly as the engine's own dist
// tests run it. It returns the run directory for removal.
func (b *bench) dist(cfg engine.Config, tr *tracer, obs *solveObservers) (*engine.Result, string, error) {
	wopts := engine.DistWorkerOptions{Speedup: rtSpeedup}
	if tr != nil {
		wopts.WrapConn = func(c net.Conn) net.Conn {
			return &countingConn{Conn: c, c: &tr.wire, scope: &tr.scope}
		}
	}
	res, info, err := engine.RunDist(cfg, engine.DistOptions{
		Workers: 2,
		RunRoot: b.runRoot,
		Speedup: rtSpeedup,
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			// Each worker gets its own observers, as a worker process
			// would; the coordinator federates the traces.
			wcfg := cfg
			if obs != nil {
				wcfg.Metrics = obs.newSink()
				wcfg.Trace = newTraceLog()
			}
			return engine.RunDistWorker(wcfg, w, wopts)
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             30 * time.Second,
	})
	dir := ""
	if info != nil {
		dir = info.RunDir
	}
	return res, dir, err
}

func newTraceLog() *trace.Log {
	l := &trace.Log{}
	l.SetCap(traceCap)
	return l
}

// solveObservers collects the metrics sinks of one solve: the engine's,
// plus one per dist worker.
type solveObservers struct {
	mu    sync.Mutex
	sinks []*metrics.Sink
}

func (o *solveObservers) newSink() *metrics.Sink {
	s := &metrics.Sink{EventCap: 1 << 20}
	o.mu.Lock()
	o.sinks = append(o.sinks, s)
	o.mu.Unlock()
	return s
}
