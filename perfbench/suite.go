package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// suiteBase is the suite workload's base trace length: paperrepro at a
// quarter of its default scale.
const suiteBase = 100_000

// suitePass runs the suite workload: all registry entries, in order,
// through one experiments.Suite. Set-up generates every benchmark's
// test and profile traces; the timed region is Entry.Run for each
// entry. A traced pass runs the timed region in stages instead — step
// 1, two-step profiles, engine replay of the registry's cell plan, then
// Entry.Run, left with rendering and the work that is not cell-shaped —
// and must end with the same work counts and the same reports.
func suitePass(ctx context.Context, e *env) (*passResult, error) {
	r := &passResult{outputs: map[string]string{}, layers: map[string]float64{}}
	start := time.Now()
	sp := e.tr.begin("setup", 0)
	s, records, err := openSuite(ctx, e, experiments.Config{BaseRecords: suiteBase}, sp)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(start)

	if e.tr != nil {
		err = suiteStaged(ctx, e, s, r)
	} else {
		c := startClock()
		runEntries(ctx, s, r)
		r.timed = c.stop()
		engineLayers(s, r.layers)
	}
	if err != nil {
		return nil, err
	}
	var pin *pinned
	if e.checkPins() {
		pin = &e.pins.Suite
	}
	judge(r, entryIDs(), pin, suiteBase)
	r.counts = suiteCounts(s)

	// The numerators and layer numbers are read after the timed region;
	// the suite's caches are warm, so building the plan costs no replay.
	plan, err := registryPlan(ctx, s)
	if err != nil {
		return nil, err
	}
	if r.work, err = planWorkOf(s, plan); err != nil {
		return nil, err
	}
	if e.tr != nil {
		r.layers["engine.predictions_per_s"] = float64(r.work.predictions) / r.layers["engine.replay_s"]
		r.layers["workload.gen_s"] = e.tr.total("workload.gen")
		r.layers["workload.records"] = float64(records)
		r.layers["experiments.live_heap_mb"] = liveHeapMB()
	}
	runtime.KeepAlive(s)
	return r, nil
}

// entryIDs lists the registry's experiment ids in order.
func entryIDs() []string {
	var ids []string
	for _, entry := range experiments.Registry() {
		ids = append(ids, entry.ID)
	}
	return ids
}

// runEntries runs every registry entry and records each rendered
// report's digest; an entry that fails is a failed operation.
func runEntries(ctx context.Context, s *experiments.Suite, r *passResult) {
	for _, entry := range experiments.Registry() {
		rep, err := entry.Run(s, ctx)
		if err != nil {
			r.fail(opError, "%s: %v", entry.ID, err)
			continue
		}
		r.outputs[entry.ID] = sha(experiments.RenderText(rep.Title, rep.Text))
	}
}

// suiteStaged is the traced timed region: one span per stage.
func suiteStaged(ctx context.Context, e *env, s *experiments.Suite, r *passResult) error {
	c := startClock()
	root := e.tr.begin("timed", 0)
	defer e.tr.end(root)
	if err := stageProfiles(ctx, e, s, root, r.layers); err != nil {
		return err
	}
	_, step1, profiles := s.ComputeCounts()

	sp := e.tr.begin("engine.replay", root)
	start := time.Now()
	plan, err := registryPlan(ctx, s)
	if err == nil {
		_, err = s.Engine().Execute(ctx, plan)
	}
	replay := time.Since(start)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	r.layers["engine.replay_s"] = replay.Seconds()

	sp = e.tr.begin("experiments.render", root)
	start = time.Now()
	runEntries(ctx, s, r)
	r.layers["experiments.render_s"] = time.Since(start).Seconds()
	e.tr.end(sp)
	r.timed = c.stop()

	// Every profile must have been computed in its own stage, or the
	// stage times would misattribute the work.
	if _, s1, p := s.ComputeCounts(); s1 != step1 || p != profiles {
		r.problems = append(r.problems, "staged suite: entries computed step-1 sweeps or profiles the profile stages did not")
	}
	return nil
}
