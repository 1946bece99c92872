// Package obs is the repository's observability layer: it measures what
// every simulation actually costs — wall time, branch throughput, heap
// traffic, GC activity — and serializes the results to a stable JSON
// schema so successive versions of the system can be compared number
// against number.
//
// The package sits below everything that runs predictors: internal/sim
// wraps each run in a Span, internal/experiments wraps each experiment,
// and the cmd/ binaries register the pprof flags and write Report files.
// It deliberately imports nothing else from this repository, so any
// layer may depend on it.
package obs

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// branchTotal counts every dynamic branch scored by any simulation loop
// in the process, cumulatively. Spans snapshot it so that a span around
// a whole experiment — which may run many predictors across a worker
// pool — still observes how many branches were simulated inside it.
var branchTotal atomic.Int64

// CountBranches adds n scored branches to the process-wide total. The
// simulation driver calls it once per run; it is safe for concurrent
// use from worker pools.
func CountBranches(n int64) { branchTotal.Add(n) }

// BranchTotal returns the cumulative number of branches scored by the
// process so far.
func BranchTotal() int64 { return branchTotal.Load() }

// Parallel-region accounting: every worker pool the process sizes (the
// experiment sweeps through sim.ForEach, the profiling pipeline's step-1
// shards) reports its fan-out here, so a report consumer can tell how
// much of a run was parallel and how wide it got without instrumenting
// each region separately.
var (
	poolRegions atomic.Int64
	poolMax     atomic.Int64
)

// RecordWorkers notes that a parallel region with an n-wide worker pool
// is about to run. Single-worker regions count as regions but do not
// raise the high-water mark above 1.
func RecordWorkers(n int) {
	if n < 1 {
		return
	}
	poolRegions.Add(1)
	for {
		cur := poolMax.Load()
		if int64(n) <= cur || poolMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// WorkerStats returns how many parallel regions the process has entered
// and the widest pool any of them used.
func WorkerStats() (regions int64, maxWorkers int) {
	return poolRegions.Load(), int(poolMax.Load())
}

// RunMetrics records what one measured region — a single predictor run
// or a whole experiment — cost to execute. It is the metrics half of
// the bench report schema (see Report).
type RunMetrics struct {
	// WallNanos is the region's wall-clock duration in nanoseconds.
	WallNanos int64 `json:"wall_ns"`
	// Branches counts the dynamic branches scored inside the region,
	// summed over every simulation run it contains.
	Branches int64 `json:"branches"`
	// BranchesPerSec is Branches divided by the wall time — the
	// throughput figure the ROADMAP's perf trajectory tracks.
	BranchesPerSec float64 `json:"branches_per_sec"`
	// AllocBytes is the heap allocated inside the region (delta of
	// runtime.MemStats.TotalAlloc; concurrent activity is attributed
	// to whichever spans are open).
	AllocBytes uint64 `json:"alloc_bytes"`
	// GCCycles is the number of garbage collections completed inside
	// the region.
	GCCycles uint32 `json:"gc_cycles"`
	// Workers is the size of the worker pool the region may have
	// fanned out over: 1 for a plain simulation run, the pool ceiling
	// for experiment sweeps driven through pool.ForEach.
	Workers int `json:"workers"`
}

// Wall returns the wall time as a duration.
func (m RunMetrics) Wall() time.Duration { return time.Duration(m.WallNanos) }

// String renders the metrics in one human-readable line.
func (m RunMetrics) String() string {
	return fmt.Sprintf("%v wall, %d branches (%.0f branches/sec), %s allocated, %d GCs, %d workers",
		m.Wall().Round(time.Microsecond), m.Branches, m.BranchesPerSec,
		formatBytes(m.AllocBytes), m.GCCycles, m.Workers)
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Span measures one region. Create it with StartSpan immediately before
// the work and call End immediately after; the returned RunMetrics is
// the difference between the two instants.
type Span struct {
	start         time.Time
	startBranches int64
	startAlloc    uint64
	startGC       uint32
	workers       int
}

// StartSpan begins measuring. It snapshots the clock, the process
// branch counter, and the allocator statistics.
func StartSpan() *Span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Span{
		start:         time.Now(),
		startBranches: BranchTotal(),
		startAlloc:    ms.TotalAlloc,
		startGC:       ms.NumGC,
		workers:       1,
	}
}

// SetWorkers records the worker-pool size the region fans out over.
// Regions that run everything on the calling goroutine leave the
// default of 1.
func (s *Span) SetWorkers(n int) {
	if n > 0 {
		s.workers = n
	}
}

// End stops measuring and returns the region's metrics.
func (s *Span) End() RunMetrics {
	wall := time.Since(s.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := RunMetrics{
		WallNanos:  int64(wall),
		Branches:   BranchTotal() - s.startBranches,
		AllocBytes: ms.TotalAlloc - s.startAlloc,
		GCCycles:   ms.NumGC - s.startGC,
		Workers:    s.workers,
	}
	if wall > 0 {
		m.BranchesPerSec = float64(m.Branches) / wall.Seconds()
	}
	return m
}

// Env identifies the machine and toolchain a report was produced on,
// so trajectory entries from different hosts are comparable.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}
