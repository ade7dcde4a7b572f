package main

import "strings"

// layers lists the rows of the CPU-profile layer budget in report order.
// Every profile sample is counted for exactly one of them, so their
// "<layer>.self_share" metrics sum to 1.
var layers = []string{
	"solver", "engine", "loadbalance", "detect", "vtime", "grid",
	"metrics", "trace", "rtime", "dtime", "goruntime", "other",
}

// packageLayers is the function→layer table (see classifyStack for how a
// sample's frames are resolved through it). A package not listed is looked
// up by its parent paths ("internal/runtime/maps" → "internal/runtime");
// a package with no entry at all (strconv, sort, encoding/json, ...) is a
// utility whose cost its caller pays. Every package under internal/ has an
// entry (TestEveryInternalPackageHasALayer).
var packageLayers = map[string]string{
	// The numerical kernel: the per-cell Newton sweeps and the problem
	// definitions and linear algebra behind them.
	"aiac/internal/solver":      "solver",
	"aiac/internal/brusselator": "solver",
	"aiac/internal/iterative":   "solver",
	"aiac/internal/linalg":      "solver",
	"aiac/internal/sparse":      "solver",
	"aiac/internal/ode":         "solver",
	"aiac/internal/heat":        "solver",
	"aiac/internal/poisson":     "solver",
	"aiac/internal/poisson2d":   "solver",
	"aiac/internal/linsys":      "solver",
	"aiac/internal/nldiffusion": "solver",

	// The solver engine: node sweeps, halo exchange, the runtime
	// interface it runs on, and the harnesses built on top of it.
	"aiac/internal/engine":      "engine",
	"aiac/internal/runenv":      "engine",
	"aiac/internal/fault":       "engine",
	"aiac/internal/windowing":   "engine",
	"aiac/internal/experiments": "engine",

	"aiac/internal/loadbalance": "loadbalance",
	"aiac/internal/detect":      "detect",
	"aiac/internal/vtime":       "vtime",
	"aiac/internal/grid":        "grid",

	// Observers: telemetry, its renderers and its service plane.
	"aiac/internal/metrics":   "metrics",
	"aiac/internal/obs":       "metrics",
	"aiac/internal/report":    "metrics",
	"aiac/internal/stats":     "metrics",
	"aiac/internal/asciiplot": "metrics",
	"aiac/internal/trace":     "trace",

	"aiac/internal/rtime": "rtime",

	// The distributed runtime and everything under it on the wire: the
	// frame codec, the coordinator relay, TCP and the system calls.
	"aiac/internal/dtime": "dtime",
	"net":                 "dtime",
	"internal/poll":       "dtime",
	"syscall":             "dtime",

	// The Go runtime proper: scheduler, channels, locks, the allocator and
	// the collector.
	"runtime":          "goruntime",
	"internal/runtime": "goruntime",
	"sync":             "goruntime",

	// The benchmark's own code: the counting wrappers and their clock reads
	// in traced runs.
	"main": "other",
}

// runtimeClasses splits goruntime samples further by function-name prefix:
// "handoff" is the cost of passing control between goroutines (channels,
// parking, futexes, the scheduler loop), which the virtual-time scheduler
// pays on every event; "gc" is the garbage collector's own work. Matched in
// order; the first hit wins.
var runtimeClasses = []struct{ prefix, class string }{
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.gcDrain", "gc"},
	{"runtime.gcMark", "gc"},
	{"runtime.gcSweep", "gc"},
	{"runtime.scanobject", "gc"},
	{"runtime.scanblock", "gc"},
	{"runtime.scanstack", "gc"},
	{"runtime.scanframeworker", "gc"},
	{"runtime.greyobject", "gc"},
	{"runtime.findObject", "gc"},
	{"runtime.markroot", "gc"},
	{"runtime.(*gcWork)", "gc"},
	{"runtime.(*gcBits)", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.sweepone", "gc"},
	{"runtime.(*sweepLocked)", "gc"},
	{"runtime.(*mspan).sweep", "gc"},
	{"runtime.wbBufFlush", "gc"},
	{"runtime.gcWriteBarrier", "gc"},
	{"runtime.bulkBarrierPreWrite", "gc"},
	{"runtime.typePointers", "gc"},

	{"runtime.chansend", "handoff"},
	{"runtime.chanrecv", "handoff"},
	{"runtime.selectgo", "handoff"},
	{"runtime.send", "handoff"},
	{"runtime.recv", "handoff"},
	{"runtime.gopark", "handoff"},
	{"runtime.goready", "handoff"},
	{"runtime.ready", "handoff"},
	{"runtime.park_m", "handoff"},
	{"runtime.mcall", "handoff"},
	{"runtime.gosched", "handoff"},
	{"runtime.goschedImpl", "handoff"},
	{"runtime.schedule", "handoff"},
	{"runtime.findRunnable", "handoff"},
	{"runtime.execute", "handoff"},
	{"runtime.runqget", "handoff"},
	{"runtime.runqput", "handoff"},
	{"runtime.runqgrab", "handoff"},
	{"runtime.runqsteal", "handoff"},
	{"runtime.stealWork", "handoff"},
	{"runtime.wakep", "handoff"},
	{"runtime.startm", "handoff"},
	{"runtime.stopm", "handoff"},
	{"runtime.notesleep", "handoff"},
	{"runtime.notewakeup", "handoff"},
	{"runtime.futex", "handoff"},
	{"runtime.semacquire", "handoff"},
	{"runtime.semrelease", "handoff"},
	{"runtime.lock", "handoff"},
	{"runtime.unlock", "handoff"},
	{"runtime.procyield", "handoff"},
	{"runtime.osyield", "handoff"},
	{"runtime.usleep", "handoff"},
	{"runtime.casgstatus", "handoff"},
	{"runtime.gogo", "handoff"},
	{"runtime.resetspinning", "handoff"},
	{"runtime.checkTimers", "handoff"},
	{"runtime.netpoll", "handoff"},
	{"sync.", "handoff"},
}

// funcPackage returns the import path of a Go symbol as the profiler names
// it ("aiac/internal/engine.(*node).sweep" → "aiac/internal/engine").
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// packageLayer resolves a package path through packageLayers, walking up to
// parent paths; ok is false when no entry covers it.
func packageLayer(pkg string) (layer string, ok bool) {
	for {
		if l, ok := packageLayers[pkg]; ok {
			return l, true
		}
		i := strings.LastIndexByte(pkg, '/')
		if i < 0 {
			return "other", false
		}
		pkg = pkg[:i]
	}
}

// classifyStack attributes one sample (frames leaf first) to a layer: the
// first frame whose package has a table entry decides, except that Go
// runtime frames which only serve their caller — copying, clearing,
// allocating, hashing, reading the clock, a preemption point — pass the
// sample up like utility packages do. Frames of the scheduler, channels,
// locks and the collector (runtimeClasses) keep it in goruntime under
// their class. It returns the layer, the goruntime class ("handoff", "gc"
// or "") and the deciding frame.
func classifyStack(frames []string) (layer, class, fn string) {
	inRuntime := false
	for _, f := range frames {
		l, mapped := packageLayer(funcPackage(f))
		if !mapped {
			continue
		}
		if l != "goruntime" {
			return l, "", f
		}
		inRuntime = true
		for _, rc := range runtimeClasses {
			if strings.HasPrefix(f, rc.prefix) {
				return l, rc.class, f
			}
		}
	}
	switch {
	case len(frames) == 0:
		return "other", "", "?"
	case inRuntime:
		return "goruntime", "", frames[0]
	}
	return "other", "", frames[0]
}
