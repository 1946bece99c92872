package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/engine"
	"repro/internal/factory"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond // descending: percentile must sort
		}
		return s
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Fatal("p99 of 999 samples accepted; it has only 9 samples beyond it")
	}
	got, err := percentile(samples(1000), 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000 ms = %v, want 990ms", got)
	}
	if got, err := percentile(samples(20), 50); err != nil || got != 10*time.Millisecond {
		t.Fatalf("p50 of 1..20 ms = %v, %v; want 10ms", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median(4,1,3,2) = %v", got)
	}
}

func TestOkFracCountsRefusedAndRetriedOut(t *testing.T) {
	got, err := okFrac([]outcome{opOK, opOK, opOK, opFailed, opFailed, opWrong, opError, opOK})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("okFrac = %v, want 0.5", got)
	}
	if _, err := okFrac(nil); err == nil {
		t.Fatal("okFrac of no operations accepted")
	}
}

// TestChunkRefusalsAreFailures streams a session through loadgen
// against servers that refuse its chunks: a non-retryable refusal and a
// server that is always busy must both leave every chunk failed, and
// busy answers count as retries.
func TestChunkRefusalsAreFailures(t *testing.T) {
	const attempts = 3 // loadgen's default
	for _, tc := range []struct {
		name                string
		status              int
		wantRetriesPerChunk int64
	}{
		{"refused", http.StatusBadRequest, 0},
		{"busy", http.StatusTooManyRequests, attempts - 1},
		{"unavailable", http.StatusServiceUnavailable, attempts - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/sessions":
					w.WriteHeader(http.StatusCreated)
					json.NewEncoder(w).Encode(serve.SessionInfo{ID: "x"})
				case r.Method == http.MethodGet && r.URL.Path == "/v1/sessions/x":
					json.NewEncoder(w).Encode(serve.SessionInfo{ID: "x"})
				default:
					w.WriteHeader(tc.status)
				}
			}))
			defer ts.Close()
			b, err := workload.ByName("compress")
			if err != nil {
				t.Fatal(err)
			}
			recs := trace.Collect(b.TestSource(10 * chunkRecords)).Records
			chunks := (len(recs) + chunkRecords - 1) / chunkRecords
			if chunks < 2 {
				t.Fatalf("%d records make %d chunk; the test wants several", len(recs), chunks)
			}
			st := &stream{input: &input{bench: "compress", spec: "gshare:budget=1KB", recs: recs}, id: "x"}
			if err := st.run(context.Background(), ts.URL, ts.Client().Transport, nil, 0); err != nil {
				t.Fatal(err)
			}
			if len(st.outcomes) != chunks {
				t.Fatalf("%d outcomes for %d chunks", len(st.outcomes), chunks)
			}
			for i, o := range st.outcomes {
				if o != opFailed {
					t.Fatalf("chunk %d outcome = %v, want failed", i, o)
				}
			}
			if want := int64(chunks) * tc.wantRetriesPerChunk; st.res.Retries != want {
				t.Fatalf("retries = %d, want %d", st.res.Retries, want)
			}
			if st.acked != 0 {
				t.Fatalf("%d records acknowledged, want 0", st.acked)
			}
			if frac, _ := okFrac(append([]outcome{opOK}, st.outcomes...)); frac != 1/float64(chunks+1) {
				t.Fatalf("okFrac with the chunks = %v, want %v", frac, 1/float64(chunks+1))
			}
		})
	}
}

// TestPredictionsNumeratorIgnoresDedup runs one plan with a duplicate
// cell through an engine that dedups it and, cell by cell, through one
// that does not: the engines execute different numbers of cells, but
// the plan's work, the engine.predictions_per_s numerator, counts every
// submitted cell either way.
func TestPredictionsNumeratorIgnoresDedup(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(b.TestSource(2000)).Records
	source := func(string) (trace.Source, error) { return trace.NewBuffer(recs), nil }
	spec, err := factory.ParseSpec("gshare:budget=1KB")
	if err != nil {
		t.Fatal(err)
	}
	gshare := func() (bpred.CondPredictor, error) { return spec.Cond() }
	plan := engine.NewPlan()
	plan.Cond("compress", "col-a", []engine.CondCell{gshare, gshare})
	plan.Cond("compress", "col-a", []engine.CondCell{gshare, gshare})
	plan.Cond("compress", "col-b", []engine.CondCell{gshare})

	dedup := engine.New(engine.Config{Source: source})
	if _, err := dedup.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	all := engine.New(engine.Config{Source: source, NoDedup: true})
	for _, c := range plan.Cells() {
		if _, err := all.Column(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dedup.Counters().Executed, int64(2); got != want {
		t.Fatalf("deduping engine executed %d cells, want %d", got, want)
	}
	if got, want := all.Counters().Executed, int64(3); got != want {
		t.Fatalf("non-deduping engine executed %d cells, want %d", got, want)
	}

	branches := func(_ string, class engine.Class) int64 { return classBranches(recs, class) }
	records := func(string) int64 { return int64(len(recs)) }
	work := workOf(plan.Cells(), branches, records)
	cond := classBranches(recs, engine.ClassCond)
	if want := (2 + 2 + 1) * cond; work.predictions != want {
		t.Fatalf("predictions = %d, want %d (5 predictors x %d branches)", work.predictions, want, cond)
	}
	if want := 3 * int64(len(recs)); work.records != want {
		t.Fatalf("records = %d, want %d", work.records, want)
	}
}
