package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bpred"
	"repro/internal/cfg"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// testSource is benchmark b's test input under a workload seed: the
// published test input at the default seed, otherwise a further input
// of the same program.
func testSource(b *workload.Benchmark, base int, seed uint64) trace.Source {
	if seed == defaultSeed {
		return b.TestSource(base)
	}
	return cfg.NewSource(b.MustProgram(), xrand.Mix64(b.Spec.Seed^xrand.Mix64(0xbe4c0000+seed)), b.Records(base))
}

// openSuite sets up a suite over seeded test inputs: it generates every
// benchmark's test trace, writes it to a fresh trace directory the
// suite ingests (Config.TraceDir), and generates every profile input
// through Suite.ProfileSource. It returns the suite and the number of
// records generated.
func openSuite(ctx context.Context, e *env, c experiments.Config, parent int) (*experiments.Suite, int64, error) {
	dir := filepath.Join(e.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var records int64
	for _, b := range workload.All() {
		sp := e.tr.begin("workload.gen", parent)
		buf := trace.Collect(testSource(b, c.BaseRecords, e.seed))
		e.tr.end(sp)
		records += int64(buf.Len())
		sp = e.tr.begin("trace.write", parent)
		err := trace.WriteFile(filepath.Join(dir, b.Name()+".vlpt"), buf)
		e.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	c.TraceDir = dir
	s := experiments.NewSuite(c)
	sp := e.tr.begin("experiments.ingest", parent)
	skipped, err := s.IngestTraces(ctx)
	e.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	if len(skipped) > 0 {
		return nil, 0, fmt.Errorf("trace ingest skipped %v", skipped)
	}
	for _, b := range workload.All() {
		sp := e.tr.begin("workload.gen", parent)
		src, err := s.ProfileSource(b.Name())
		e.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		records += int64(src.(*trace.Buffer).Len())
	}
	return s, records, nil
}

// profileKey names one step-1 sweep or two-step profile of a suite.
type profileKey struct {
	bench    string
	indirect bool
	k        uint
}

func condK(budget int) uint { return bpred.MustLog2Entries(budget, 2) }
func indK(budget int) uint  { return bpred.MustLog2Entries(budget, 32) }

// step1Keys are the step-1 sweeps the registry uses: every benchmark
// at every table size of the paper's sweeps (Table 2 and the suite
// fixed lengths of the comparisons).
func step1Keys() []profileKey {
	var keys []profileKey
	for _, b := range workload.All() {
		for _, kb := range experiments.CondSizesKB {
			keys = append(keys, profileKey{b.Name(), false, condK(kb << 10)})
		}
		for _, bytes := range experiments.IndSizesBytes {
			keys = append(keys, profileKey{b.Name(), true, indK(bytes)})
		}
	}
	return keys
}

// profileKeys are the two-step profiles the registry uses: every
// benchmark at the comparison sizes (16 KB conditional, 2 KB indirect)
// and gcc at every size of the sweeps (Figures 9 and 10).
func profileKeys() []profileKey {
	var keys []profileKey
	for _, b := range workload.All() {
		keys = append(keys, profileKey{b.Name(), false, condK(16 << 10)}, profileKey{b.Name(), true, indK(2048)})
	}
	for _, kb := range experiments.CondSizesKB {
		if kb != 16 {
			keys = append(keys, profileKey{"gcc", false, condK(kb << 10)})
		}
	}
	for _, bytes := range experiments.IndSizesBytes {
		if bytes != 2048 {
			keys = append(keys, profileKey{"gcc", true, indK(bytes)})
		}
	}
	return keys
}

// stageProfiles runs every step-1 sweep and then every two-step profile
// the registry needs, each stage one span, and reports the layer
// numbers: the stage times and how many sweeps and profiles the suite
// actually computed in each.
func stageProfiles(ctx context.Context, e *env, s *experiments.Suite, parent int, layers map[string]float64) error {
	_, step1Before, profBefore := s.ComputeCounts()
	keys := step1Keys()
	start := time.Now()
	sp := e.tr.begin("profile.step1", parent)
	err := pool.ForEach(ctx, len(keys), func(i int) error {
		_, err := s.Step1(keys[i].bench, keys[i].indirect, keys[i].k)
		return err
	})
	e.tr.end(sp)
	if err != nil {
		return err
	}
	layers["profile.step1_s"] = time.Since(start).Seconds()
	keys = profileKeys()
	start = time.Now()
	sp = e.tr.begin("profile.twostep", parent)
	err = pool.ForEach(ctx, len(keys), func(i int) error {
		_, err := s.Profile(keys[i].bench, keys[i].indirect, keys[i].k)
		return err
	})
	e.tr.end(sp)
	if err != nil {
		return err
	}
	layers["profile.twostep_s"] = time.Since(start).Seconds()
	_, step1, profiles := s.ComputeCounts()
	layers["profile.step1_runs"] = float64(step1 - step1Before)
	layers["profile.twostep_runs"] = float64(profiles - profBefore)
	return nil
}

// registryPlan builds one plan of every cell the registry declares
// (experiments.GridKeys, in registry order, duplicates included). The
// suite's step-1 sweeps should already be cached: comparison columns
// need the suite fixed lengths.
func registryPlan(ctx context.Context, s *experiments.Suite) (*engine.Plan, error) {
	plan := engine.NewPlan()
	for _, entry := range experiments.Registry() {
		for _, key := range experiments.GridKeys(entry.ID) {
			cell, err := s.ColumnCell(ctx, key)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", key, err)
			}
			plan.Add(cell)
		}
	}
	return plan, nil
}

// planWorkOf is the fixed work of a plan over the suite's test traces.
func planWorkOf(s *experiments.Suite, plan *engine.Plan) (planWork, error) {
	type traceWork struct{ cond, indirect, records int64 }
	traces := map[string]traceWork{}
	for _, c := range plan.Cells() {
		if _, ok := traces[c.Trace]; ok {
			continue
		}
		src, err := s.TestSource(c.Trace)
		if err != nil {
			return planWork{}, err
		}
		recs := src.(*trace.Buffer).Records
		traces[c.Trace] = traceWork{
			cond:     classBranches(recs, engine.ClassCond),
			indirect: classBranches(recs, engine.ClassIndirect),
			records:  int64(len(recs)),
		}
	}
	branches := func(name string, class engine.Class) int64 {
		if class == engine.ClassIndirect {
			return traces[name].indirect
		}
		return traces[name].cond
	}
	records := func(name string) int64 { return traces[name].records }
	return workOf(plan.Cells(), branches, records), nil
}

// suiteCounts describes the work a suite did: traces generated, step-1
// sweeps and profiles computed, and cells the engine executed.
func suiteCounts(s *experiments.Suite) string {
	records, step1, profiles := s.ComputeCounts()
	c := s.Engine().Counters()
	return fmt.Sprintf("traces=%d step1=%d profiles=%d executed=%d resumed=%d",
		records, step1, profiles, c.Executed, c.ResumedRecords)
}

// engineLayers reports the engine's scheduling counters.
func engineLayers(s *experiments.Suite, layers map[string]float64) {
	c := s.Engine().Counters()
	layers["engine.cells_submitted"] = float64(c.Submitted)
	layers["engine.cells_executed"] = float64(c.Executed)
	layers["engine.cells_deduped"] = float64(c.Deduped)
	if c.Submitted > 0 {
		layers["engine.dedup_frac"] = float64(c.Deduped) / float64(c.Submitted)
	}
}
