package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"aiac/internal/brusselator"
)

// hostInfo anchors a record to the machine that produced it.
type hostInfo struct {
	nproc, gomaxprocs int
	cpu               string
	sweepUS           float64
}

func probeHost() hostInfo {
	return hostInfo{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpu:        cpuModel(),
		sweepUS:    sweepMicros(),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sweepMicros is the host calibration: the median time of one 64-cell
// Brusselator sweep (dt 0.02, T 1) through fused Problem.UpdatePair calls,
// the loop BenchmarkBrusselatorSweep times. It is single-threaded and
// allocation-free, so it tracks per-core speed; records are compared
// through it, never gated on it.
func sweepMicros() float64 {
	params := brusselator.DefaultParams(64, 0.02)
	params.T = 1
	prob := brusselator.New(params)
	m := prob.Components()
	old := make([][]float64, m)
	cur := make([][]float64, m)
	for j := 0; j < m; j++ {
		old[j] = prob.Init(j)
		cur[j] = make([]float64, prob.TrajLen())
	}
	get := func(i int) []float64 { return old[i] }
	const batches, perBatch = 9, 20
	times := make([]float64, batches)
	for b := range times {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			for j := 0; j+1 < m; j += 2 {
				prob.UpdatePair(j, j+1, old[j], old[j+1], get, cur[j], cur[j+1])
			}
		}
		times[b] = time.Since(t0).Seconds() * 1e6 / perBatch
	}
	return median(times)
}

// executableID names the running binary by content, so determinism
// records from a different build of the program are never compared.
func executableID() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
