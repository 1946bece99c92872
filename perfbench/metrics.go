package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, one outlier decides the number.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the pct-th percentile of samples by nearest rank.
// It refuses when fewer than minBeyond samples lie beyond that rank, so
// a p99 needs at least 1000 samples.
func percentile(samples []time.Duration, pct int) (time.Duration, error) {
	n := len(samples)
	rank := (pct*n + 99) / 100 // ceil(pct*n/100), 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d",
			pct, n, n-rank, minBeyond)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

// outcome is how one operation (an experiment, a cell, a chunk) ended.
type outcome int

const (
	// opOK: the operation succeeded and its output passed its check.
	opOK outcome = iota
	// opWrong: it succeeded but its output failed the check.
	opWrong
	// opFailed: the client gave up on it: the server refused it with a
	// non-retryable answer, or every retry was refused or lost.
	opFailed
	// opError: it returned an error.
	opError
)

// okFrac is the share of attempted operations that succeeded and passed
// their output check. Refused and retried-out operations count as
// failures, like wrong answers.
func okFrac(outcomes []outcome) (float64, error) {
	if len(outcomes) == 0 {
		return 0, fmt.Errorf("no operations attempted")
	}
	ok := 0
	for _, o := range outcomes {
		if o == opOK {
			ok++
		}
	}
	return float64(ok) / float64(len(outcomes)), nil
}

// classBranches counts the records of one predictor class in a trace:
// the branches a predictor of that class is asked to predict.
func classBranches(recs []trace.Record, class engine.Class) int64 {
	var n int64
	for _, r := range recs {
		if class == engine.ClassIndirect && r.Kind.IndirectTarget() ||
			class == engine.ClassCond && r.Kind.Conditional() {
			n++
		}
	}
	return n
}

// planWork is the fixed work a cell plan asks for, or the records a
// serve pass had acknowledged. Every submitted cell counts, duplicates
// included: the numerator is a property of the workload, so serving a
// duplicate from the engine's cache (or skipping redundant work any
// other way) can only raise the rate, never lower it.
type planWork struct {
	predictions int64 // class branches × predictors, summed over cells
	records     int64 // trace records, summed over cells
}

// workOf sums planWork over submitted cells. branches(trace, class)
// and records(trace) describe the test traces.
func workOf(cells []engine.Cell, branches func(string, engine.Class) int64, records func(string) int64) planWork {
	var w planWork
	for _, c := range cells {
		preds := int64(len(c.Cond) + len(c.Indirect))
		w.predictions += branches(c.Trace, c.Class()) * preds
		w.records += records(c.Trace)
	}
	return w
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			break
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
