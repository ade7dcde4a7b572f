package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Every package under internal/ must map to a layer of the budget, so a
// new package cannot silently land in other.self_share.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	seen := 0
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		hasCode := false
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				hasCode = true
			}
		}
		if !hasCode {
			return nil
		}
		rel, _ := filepath.Rel("..", path)
		pkg := "aiac/" + filepath.ToSlash(rel)
		seen++
		layer, ok := packageLayer(pkg)
		if !ok || !known[layer] || layer == "other" {
			t.Errorf("package %s maps to no layer (got %q)", pkg, layer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 20 {
		t.Fatalf("found only %d packages under ../internal", seen)
	}
}

func TestClassifyStack(t *testing.T) {
	cases := []struct {
		frames       []string
		layer, class string
	}{
		{[]string{"aiac/internal/solver.BrussWindowPair", "aiac/internal/brusselator.(*Problem).UpdatePair"}, "solver", ""},
		// Runtime helpers and utility packages: the caller pays.
		{[]string{"runtime.memmove", "runtime.growslice", "aiac/internal/vtime.(*proc).route"}, "vtime", ""},
		{[]string{"runtime.nanotime", "time.now", "time.Now", "main.(*countingProblem).UpdatePair"}, "other", ""},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode", "aiac/internal/engine.writeWorkerSidecars"}, "engine", ""},
		{[]string{"runtime.asyncPreempt", "aiac/internal/grid.(*Cluster).ComputeTime"}, "grid", ""},
		// The transport under dtime.
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "syscall.write", "internal/poll.(*FD).Write"}, "dtime", ""},
		// Scheduler handoff and the collector stay in goruntime.
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable"}, "goruntime", "handoff"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "aiac/internal/vtime.(*proc).yield"}, "goruntime", "handoff"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "goruntime", "gc"},
		{[]string{"sync.(*Mutex).lockSlow", "sync.(*Mutex).Lock", "aiac/internal/metrics.(*Sink).Event"}, "goruntime", "handoff"},
		{[]string{"runtime.mstart"}, "goruntime", ""},
		{[]string{"strings.Index"}, "other", ""},
		{nil, "other", ""},
	}
	for _, c := range cases {
		layer, class, _ := classifyStack(c.frames)
		if layer != c.layer || class != c.class {
			t.Errorf("%v: got %s/%s, want %s/%s", c.frames, layer, class, c.layer, c.class)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"aiac/internal/engine.(*node).sweep":         "aiac/internal/engine",
		"runtime.chanrecv":                           "runtime",
		"sync/atomic.(*Int64).Add":                   "sync/atomic",
		"slices.SortFunc[go.shape.[]float64,main.x]": "slices",
		"main.main": "main",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A real CPU profile of a kernel loop decodes, puts the solver layer first,
// and its self-shares sum to 1.
func TestProfileBudget(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		sweepMicros()
	}
	pprof.StopCPUProfile()
	stacks, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b := layerBudget(stacks)
	if b.samples < 10 {
		t.Skipf("only %d samples", b.samples)
	}
	sum := 0.0
	for _, l := range layers {
		sum += b.share[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("self-shares sum to %v", sum)
	}
	for _, l := range layers {
		if b.share[l] > b.share["solver"] {
			t.Fatalf("%s, not solver, leads the budget of a kernel loop: %v", l, b.share)
		}
	}
}
