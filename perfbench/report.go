package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// judge turns each operation's recorded output into an outcome. An
// operation with no output already failed. With pin set (the default
// seed) an output must match its pinned digest; at other seeds the
// run-level checks (identical outputs in every pass, served equals
// batch) are what can fail it.
func judge(r *passResult, keys []string, pin *pinned, base int) {
	for _, key := range keys {
		got, ok := r.outputs[key]
		if !ok {
			continue
		}
		if pin != nil {
			if err := pin.check(base, key, got); err != nil {
				r.fail(opWrong, "%v", err)
				continue
			}
		}
		r.ok()
	}
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a run reports with --trace 0, on every
// workload (README.md defines each one per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"records_per_s", "1/s"},
}

// perLayer are the metrics a run reports with --trace 1. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"workload.records", "count"},
	{"profile.step1_s", "s"},
	{"profile.step1_runs", "count"},
	{"profile.twostep_s", "s"},
	{"profile.twostep_runs", "count"},
	{"engine.replay_s", "s"},
	{"engine.predictions_per_s", "1/s"},
	{"engine.cells_submitted", "count"},
	{"engine.cells_executed", "count"},
	{"engine.cells_deduped", "count"},
	{"engine.dedup_frac", "ratio"},
	{"experiments.render_s", "s"},
	{"experiments.live_heap_mb", "MB"},
	{"serve.chunk_p50_ms", "ms"},
	{"serve.chunk_p99_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.replay_ms", "ms"},
	{"serve.spill_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"snap.spill_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.snapshots_saved", "count"},
	{"serve.bytes_per_record", "bytes"},
	{"bench.trace_overhead_frac", "ratio"},
}

// summarize checks the passes against each other and reduces them to
// the run's metrics: medians over passes for times and rates,
// over passes for set-up and layer numbers, pooled samples for chunk
// latency, sums for operation counts.
func summarize(plain, traced []*passResult, traceMode bool) (*result, error) {
	res := &result{}
	all := append(append([]*passResult(nil), plain...), traced...)
	var outcomes []outcome
	var lats []time.Duration
	for i, r := range all {
		for _, p := range r.problems {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: %s", i, p))
		}
		outcomes = append(outcomes, r.outcomes...)
		lats = append(lats, r.latencies...)
		if d, d0 := r.digest(), all[0].digest(); d != d0 {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: outputs differ from pass 0", i))
		}
	}
	for i, r := range traced {
		if r.counts != plain[0].counts {
			res.problems = append(res.problems, fmt.Sprintf(
				"traced pass %d did different work: %s, untraced %s", i, r.counts, plain[0].counts))
		}
	}
	frac, err := okFrac(outcomes)
	if err != nil {
		return nil, err
	}
	res.Attempted = len(outcomes)
	for _, o := range outcomes {
		if o != opOK {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0

	var p50, p99 time.Duration
	if len(lats) > 0 {
		if p50, err = percentile(lats, 50); err != nil {
			return nil, fmt.Errorf("chunk_p50_ms: %w", err)
		}
		if p99, err = percentile(lats, 99); err != nil {
			return nil, fmt.Errorf("chunk_p99_ms: %w", err)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// overTimed is the median of f over the timed regions of rs.
	overTimed := func(rs []*passResult, f func(*passResult, timing) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r, r.timed)
		}
		return median(xs)
	}
	wall := func(_ *passResult, t timing) float64 { return t.wall.Seconds() }

	if !traceMode {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		setups := make([]float64, len(plain))
		for i, r := range plain {
			setups[i] = r.setup.Seconds()
		}
		values := map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      overTimed(plain, wall),
			"cpu_s":       overTimed(plain, func(_ *passResult, t timing) float64 { return t.cpu.Seconds() }),
			"peak_rss_mb": rss,
			"ok_frac":     frac,
			"records_per_s": overTimed(plain, func(r *passResult, t timing) float64 {
				return float64(r.work.records) / t.wall.Seconds()
			}),
		}
		for _, m := range endToEnd {
			res.set(m.name, values[m.name], m.unit)
		}
		if len(lats) > 0 {
			res.extra = append(res.extra,
				fmt.Sprintf("%-28s %16.6f ms (%d chunks)", "chunk_p50_ms", ms(p50), len(lats)),
				fmt.Sprintf("%-28s %16.6f ms (%d chunks)", "chunk_p99_ms", ms(p99), len(lats)))
		}
		res.extra = append(res.extra, fmt.Sprintf("%d passes", len(plain)))
	} else {
		for _, m := range perLayer {
			var xs []float64
			for _, r := range all {
				if v, ok := r.layers[m.name]; ok {
					xs = append(xs, v)
				}
			}
			v := 0.0
			if len(xs) > 0 {
				v = median(xs)
			}
			res.set(m.name, v, m.unit)
		}
		if len(lats) > 0 {
			res.set("serve.chunk_p50_ms", ms(p50), "ms")
			res.set("serve.chunk_p99_ms", ms(p99), "ms")
		}
		res.set("bench.trace_overhead_frac", overTimed(traced, wall)/overTimed(plain, wall)-1, "ratio")
		res.extra = append(res.extra, fmt.Sprintf("%d untraced and %d traced passes", len(plain), len(traced)))
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}
