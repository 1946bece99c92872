// Command perfbench is the repository's benchmark: one process that
// imports the repo's packages, drives one named workload through them,
// times the calls into each layer from outside, checks every output,
// and prints the metrics.
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// A run repeats passes of the workload until --seconds have passed
// (at least three). Each pass sets up its inputs from scratch (timed
// as setup_s) and then runs the timed region; the run reports medians
// over passes. With --trace 1 the run alternates untraced and traced
// passes and reports the per-layer metrics instead. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/engine/pool"
)

// workDir is where runs keep their scratch files, relative to the
// checkout root the benchmark runs from.
const workDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	pin      bool
}

// env is what one pass of a workload runs with.
type env struct {
	dir  string // the pass's scratch directory, removed after the pass
	seed uint64
	tr   *tracer // nil on untraced passes
	// pins holds the digests pinned for the default seed; a workload
	// checks its outputs against them unless pinning is set.
	pins    *pinSet
	pinning bool
}

// checkPins reports whether this pass must match pinned digests.
func (e *env) checkPins() bool { return e.seed == defaultSeed && !e.pinning }

// timing is one timed region's host wall time and process CPU time.
type timing struct{ wall, cpu time.Duration }

// passResult is what one pass measured and checked.
type passResult struct {
	setup    time.Duration
	timed    timing
	outcomes []outcome
	problems []string
	// work is the fixed work the pass asked for, the numerator of the
	// throughput metrics.
	work planWork
	// outputs maps each operation to the digest of its output; digest
	// combines them, so passes of one run can be compared.
	outputs map[string]string
	// counts describes the work the layers did (cache misses, cells
	// executed); a traced pass must match an untraced one.
	counts    string
	latencies []time.Duration
	// layers holds a traced pass's per-layer numbers.
	layers map[string]float64
}

func (r *passResult) ok() { r.outcomes = append(r.outcomes, opOK) }

func (r *passResult) fail(o outcome, format string, args ...any) {
	r.outcomes = append(r.outcomes, o)
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// digest combines the per-operation digests in key order.
func (r *passResult) digest() string {
	keys := make([]string, 0, len(r.outputs))
	for k := range r.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var all []byte
	for _, k := range keys {
		all = append(all, k+"="+r.outputs[k]+"\n"...)
	}
	return sha(all)
}

type workloadDef struct {
	name string
	pass func(ctx context.Context, e *env) (*passResult, error)
}

var workloads = []workloadDef{
	{"suite", suitePass},
	{"serve-spill", servePass},
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: suite or serve-spill")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed (0 keeps the published inputs)")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to keep running passes")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics from traced passes")
	flag.BoolVar(&o.pin, "pin", false, "run one pass at the default seed and rewrite perfbench/digests.json")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := runWorkload(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(o options) error {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.pin && (o.seed != defaultSeed || w.name != "suite") {
		return fmt.Errorf("-pin pins suite at seed %d", defaultSeed)
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pool.SetCap(runtime.NumCPU())

	work := filepath.Join(workDir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	plain, traced, err := runPasses(ctx, *w, o, work, pins, tr)
	if err != nil {
		return err
	}
	if o.pin {
		return writePins(pins, plain[0].outputs)
	}
	res, err := summarize(plain, traced, o.trace)
	if err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL", p)
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runPasses repeats passes until the time budget is spent and each
// kind of pass has its minimum count. Traced runs alternate untraced
// and traced passes, so both see the same machine conditions.
func runPasses(ctx context.Context, w workloadDef, o options, work string, pins *pinSet, tr *tracer) (plain, traced []*passResult, err error) {
	minPlain, minTraced := 3, 0
	if o.trace {
		minPlain, minTraced = 2, 2
	}
	if o.pin {
		minPlain = 1
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var last time.Duration // how long the previous pass took
	for p := 0; ; p++ {
		// Once the minimum is met, start a pass only if it should end
		// within the budget, so a run lasts about --seconds.
		enough := len(plain) >= minPlain && len(traced) >= minTraced
		if enough && (o.pin || time.Since(start)+last > budget) {
			return plain, traced, nil
		}
		passStart := time.Now()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		e := &env{dir: filepath.Join(work, fmt.Sprintf("pass%d", p)), seed: o.seed, pins: pins, pinning: o.pin}
		isTraced := o.trace && p%2 == 1
		if isTraced {
			tr.startPass(p)
			e.tr = tr
		}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, nil, err
		}
		r, err := w.pass(ctx, e)
		if rmErr := os.RemoveAll(e.dir); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", p, err)
		}
		fmt.Fprintf(os.Stderr, "pass %d (traced %v): setup %.3fs, wall %.3fs cpu %.3fs\n",
			p, isTraced, r.setup.Seconds(), r.timed.wall.Seconds(), r.timed.cpu.Seconds())
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Return the pass's garbage before the next one, so one pass's
		// heap does not tax the next pass's timed region.
		runtime.GC()
		debug.FreeOSMemory()
		last = time.Since(passStart)
	}
}

// clock times a region in wall and CPU time. Starting one first
// collects the garbage set-up left, so the region pays only for its
// own allocations.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock {
	runtime.GC()
	return clock{wall: time.Now(), cpu: cpuTime()}
}

func (c clock) stop() timing {
	return timing{wall: time.Since(c.wall), cpu: cpuTime() - c.cpu}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string // metric print order
	extra    []string // human-readable lines printed before the table
	problems []string
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// print writes the metrics by name and unit, then the JSON line.
func (r *result) print(f *os.File) error {
	for _, line := range r.extra {
		fmt.Fprintln(f, line)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%-28s %16.6f %s\n", name, m.Value, m.Unit)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(f, string(data))
	return err
}
