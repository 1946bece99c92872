package experiments

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSingleflightStep1AndProfile hammers the suite's memoised artifacts
// from many goroutines asking for the same keys and requires each
// artifact to be computed exactly once: the flight cells must serialise
// concurrent first requests, not just deduplicate sequential ones. Run
// under -race this also checks the caches for data races.
func TestSingleflightStep1AndProfile(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 4000})
	const name = "gcc"
	const hammer = 16

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	record := func(err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	for i := 0; i < hammer; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := s.ProfileSource(name)
			record(err)
		}()
		go func() {
			defer wg.Done()
			_, err := s.Step1(name, false, 10)
			record(err)
		}()
		go func() {
			defer wg.Done()
			_, err := s.Profile(name, false, 10)
			record(err)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}

	// One profile-input generation, one step-1 sweep, one two-step
	// profile — however many goroutines raced for them.
	records, step1, profiles := s.ComputeCounts()
	if records != 1 {
		t.Errorf("trace generations = %d, want 1", records)
	}
	if step1 != 1 {
		t.Errorf("step-1 sweeps = %d, want 1", step1)
	}
	if profiles != 1 {
		t.Errorf("two-step profiles = %d, want 1", profiles)
	}

	// Distinct keys still compute separately.
	if _, err := s.Step1(name, true, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.records(name, false); err != nil {
		t.Fatal(err)
	}
	records, step1, _ = s.ComputeCounts()
	if records != 2 || step1 != 2 {
		t.Errorf("after distinct keys: records = %d, step1 = %d, want 2/2", records, step1)
	}
}

// TestSingleflightProfileSharesStep1: Step1 and Profile of one key share
// a single step-1 sweep, whichever is asked for first. Besides the
// suite's counter, the scored-branch total shows the work: a profile
// that reuses the sweep scores its 7 step-2 passes and nothing else.
func TestSingleflightProfileSharesStep1(t *testing.T) {
	for _, order := range []string{"step1-first", "profile-first"} {
		t.Run(order, func(t *testing.T) {
			s := NewSuite(Config{BaseRecords: 4000})
			var total int64
			step1 := func() int64 {
				before := obs.BranchTotal()
				r, err := s.Step1("gcc", false, 10)
				if err != nil {
					t.Fatal(err)
				}
				total = r.Total
				return obs.BranchTotal() - before
			}
			prof := func() int64 {
				before := obs.BranchTotal()
				if _, err := s.Profile("gcc", false, 10); err != nil {
					t.Fatal(err)
				}
				return obs.BranchTotal() - before
			}
			if order == "step1-first" {
				s1, p := step1(), prof()
				if s1 != total || p != 7*total {
					t.Errorf("scored branches: step1 %d, profile %d; want %d, %d", s1, p, total, 7*total)
				}
			} else {
				p, s1 := prof(), step1()
				if p != 8*total || s1 != 0 {
					t.Errorf("scored branches: profile %d, step1 %d; want %d, 0", p, s1, 8*total)
				}
			}
			if _, sweeps, profiles := s.ComputeCounts(); sweeps != 1 || profiles != 1 {
				t.Errorf("step-1 sweeps = %d, profiles = %d, want 1/1", sweeps, profiles)
			}
		})
	}
}

// TestSingleflightSharesResultPointer: latecomers must receive the very
// artifact the winning computation produced, not a recomputed copy.
func TestSingleflightSharesResultPointer(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 3000})
	const name = "go"
	const hammer = 8
	profiles := make([]interface{}, hammer)
	var wg sync.WaitGroup
	for i := 0; i < hammer; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Profile(name, false, 9)
			if err != nil {
				t.Error(err)
				return
			}
			profiles[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < hammer; i++ {
		if profiles[i] != profiles[0] {
			t.Fatalf("goroutine %d received a different *Profile than goroutine 0", i)
		}
	}
}

// TestSingleflightPrimedRecordsSkipGeneration: ingested test traces are
// installed as already-resolved flights, so TestSource never generates.
func TestSingleflightPrimedRecordsSkipGeneration(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 3000})
	const name = "perl"
	primed := []trace.Record{{PC: 0x1004}}
	s.primeTestRecords(name, primed)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := s.records(name, false)
			if err != nil {
				t.Error(err)
				return
			}
			if len(recs) != 1 || recs[0].PC != 0x1004 {
				t.Error("primed records not served")
			}
		}()
	}
	wg.Wait()
	if records, _, _ := s.ComputeCounts(); records != 0 {
		t.Errorf("trace generations = %d, want 0 for a primed benchmark", records)
	}
}
