package profile

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred/counter"
	"repro/internal/engine/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/xrand"
)

// profileFixture builds a deterministic trace mixing conditionals with
// correlated outcomes, an indirect dispatch site with order-2 target
// patterns, and calls/returns that extend the path without being scored.
func profileFixture(seed uint64, n int) *trace.Buffer {
	rng := xrand.New(seed)
	buf := &trace.Buffer{}
	condPCs := []arch.Addr{0x1004, 0x2008, 0x300c}
	targets := []arch.Addr{0x5004, 0x6008, 0x700c}
	seq := []int{0, 1, 2, 0, 2, 1}
	for i := 0; i < n; i++ {
		pc := condPCs[rng.Uint64()%uint64(len(condPCs))]
		taken := rng.Bool(0.6)
		next := pc.FallThrough()
		if taken {
			next = arch.Addr(0x8000 + (rng.Uint64()&0x3)*16)
		}
		buf.Append(trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		switch rng.Uint64() % 4 {
		case 0:
			buf.Append(trace.Record{PC: 0x4010, Kind: arch.Indirect, Taken: true,
				Next: targets[seq[i%len(seq)]]})
		case 1:
			buf.Append(trace.Record{PC: 0x9004, Kind: arch.Call, Taken: true, Next: 0xa000})
		case 2:
			buf.Append(trace.Record{PC: 0xa010, Kind: arch.Return, Taken: true, Next: 0x9008})
		}
	}
	return buf
}

// refStep1Cond is the pre-flat-array step 1 for conditionals, kept as the
// reference semantics: replay through the Source interface, one private
// FLP table per candidate, correct counts accumulated in a per-PC map.
func refStep1Cond(src trace.Source, k uint, n int, lengths []int) (map[arch.Addr][]int64, []int64, int64) {
	hs, err := vlp.NewHashSet(k, n)
	if err != nil {
		panic(err)
	}
	tables := make([]*counter.Array, len(lengths))
	for i := range tables {
		tables[i] = counter.NewArray(1<<k, 2, 1)
	}
	perPC := map[arch.Addr][]int64{}
	correct := make([]int64, len(lengths))
	var total int64
	src.Reset()
	var r trace.Record
	for src.Next(&r) {
		if r.Kind == arch.Cond {
			total++
			row := perPC[r.PC]
			if row == nil {
				row = make([]int64, len(lengths))
				perPC[r.PC] = row
			}
			for i, l := range lengths {
				idx := int(hs.Index(l))
				if tables[i].Taken(idx) == r.Taken {
					row[i]++
					correct[i]++
				}
				tables[i].Train(idx, r.Taken)
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}
	return perPC, correct, total
}

// refStep1Indirect is the indirect-class reference: target registers
// instead of counters, last-target-match scoring.
func refStep1Indirect(src trace.Source, k uint, n int, lengths []int) (map[arch.Addr][]int64, []int64, int64) {
	hs, err := vlp.NewHashSet(k, n)
	if err != nil {
		panic(err)
	}
	tables := make([][]uint32, len(lengths))
	for i := range tables {
		tables[i] = make([]uint32, 1<<k)
	}
	perPC := map[arch.Addr][]int64{}
	correct := make([]int64, len(lengths))
	var total int64
	src.Reset()
	var r trace.Record
	for src.Next(&r) {
		if r.Kind.IndirectTarget() {
			total++
			row := perPC[r.PC]
			if row == nil {
				row = make([]int64, len(lengths))
				perPC[r.PC] = row
			}
			target := uint32(r.Next)
			for i, l := range lengths {
				idx := hs.Index(l)
				if tables[i][idx] == target {
					row[i]++
					correct[i]++
				}
				tables[i][idx] = target
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}
	return perPC, correct, total
}

// blockFixture returns a fixture long enough that both classes' scored
// records span several blocks of the prefix-XOR pass, so block
// boundaries fall mid-trace for every kernel.
func blockFixture(t *testing.T, seed uint64) *trace.Buffer {
	t.Helper()
	buf := profileFixture(seed, 10*blockTargets+1000)
	for _, indirect := range []bool{false, true} {
		if _, _, scored := internPCs(buf.Records, indirect); scored < 2*blockTargets {
			t.Fatalf("fixture scores %d records (indirect=%v), want several blocks of %d", scored, indirect, blockTargets)
		}
	}
	return buf
}

// withPoolCaps runs fn under each worker-pool cap, so how the step-1
// candidate-group jobs spread over workers (inline, two, three) cannot
// change any count.
func withPoolCaps(t *testing.T, fn func(t *testing.T)) {
	defer pool.SetCap(0)
	for _, c := range []int{1, 2, 3} {
		pool.SetCap(c)
		t.Run(fmt.Sprintf("cap%d", c), fn)
	}
}

// referenceConfig is one configuration the reference differentials run.
type referenceConfig struct {
	name string
	cfg  Config
}

// referenceConfigs crosses three table sizes with four candidate sets:
// all 32 lengths, the §3.1 subset (six lengths, which do not split into
// equal candidate groups), a single length (fewer lengths than
// candidates), and every length of a 12-deep THB.
func referenceConfigs() []referenceConfig {
	var out []referenceConfig
	for _, k := range []uint{7, 10, 20} {
		for _, c := range []referenceConfig{
			{"all", Config{TableBits: k}},
			{"subset", Config{TableBits: k, Lengths: []int{1, 2, 4, 8, 16, 32}}},
			{"single", Config{TableBits: k, Lengths: []int{3}}},
			{"maxpath12", Config{TableBits: k, MaxPath: 12}},
		} {
			out = append(out, referenceConfig{fmt.Sprintf("k%d/%s", k, c.name), c.cfg})
		}
	}
	return out
}

// TestStep1FlatMatchesMapReference pins the blocked step 1 (one
// prefix-XOR pass, candidate-group jobs on the worker pool, column
// merge) to the map-based reference, count for count, for both branch
// classes and every reference configuration.
func TestStep1FlatMatchesMapReference(t *testing.T) {
	buf := blockFixture(t, 11)
	configs := referenceConfigs()
	for _, class := range []struct {
		name     string
		indirect bool
		ref      func(trace.Source, uint, int, []int) (map[arch.Addr][]int64, []int64, int64)
	}{
		{"cond", false, refStep1Cond},
		{"indirect", true, refStep1Indirect},
	} {
		type result struct {
			perPC   map[arch.Addr][]int64
			correct []int64
			total   int64
		}
		want := make([]result, len(configs))
		for i, rc := range configs {
			w := &want[i]
			w.perPC, w.correct, w.total = class.ref(buf, rc.cfg.TableBits, rc.cfg.maxPath(), rc.cfg.lengths())
		}
		t.Run(class.name, func(t *testing.T) {
			withPoolCaps(t, func(t *testing.T) {
				recIDs, pcs, scored := internPCs(buf.Records, class.indirect)
				for i, rc := range configs {
					lengths := rc.cfg.lengths()
					counts, correct, err := step1Counts(buf.Records, recIDs, len(pcs), class.indirect, rc.cfg.TableBits, lengths)
					if err != nil {
						t.Fatal(err)
					}
					if scored != want[i].total {
						t.Errorf("%s: scored %d branches, reference scored %d", rc.name, scored, want[i].total)
					}
					if !reflect.DeepEqual(correct, want[i].correct) {
						t.Errorf("%s: aggregate correct counts diverge:\n flat %v\n ref  %v", rc.name, correct, want[i].correct)
					}
					if len(pcs) != len(want[i].perPC) {
						t.Fatalf("%s: interned %d PCs, reference saw %d", rc.name, len(pcs), len(want[i].perPC))
					}
					w := len(lengths)
					for id, pc := range pcs {
						if !reflect.DeepEqual(counts[id*w:(id+1)*w], want[i].perPC[pc]) {
							t.Errorf("%s: PC %v per-length counts diverge:\n flat %v\n ref  %v",
								rc.name, pc, counts[id*w:(id+1)*w], want[i].perPC[pc])
						}
					}
				}
			})
		})
	}
}

// TestPrefixXORMatchesHashSet pins the identity the pass rests on: at
// every scored record, rotl_k(P(n) ^ P(max(n-L, 0)), n mod k) read from
// the record's block equals the partial-sum register I_L of a HashSet
// fed the same targets, and the §3.3 XOR tree (DirectIndex), for every L
// in 1..32 — including records with fewer than L targets behind them,
// k = 1 (every rotation is 0) and k = 32 (the doubled value's high
// word). The input spans several blocks, and its middle stretch has no
// indirect branch for two blocks, so the indirect class passes a whole
// block over and must carry P across it.
func TestPrefixXORMatchesHashSet(t *testing.T) {
	rng := xrand.New(3)
	var recs []trace.Record
	mixed := func(n int) {
		for i := 0; i < n; i++ {
			next := arch.Addr(rng.Uint64())
			switch rng.Uint64() % 8 {
			case 0:
				recs = append(recs, trace.Record{PC: 0x4010, Kind: arch.Indirect, Taken: true, Next: next})
			case 1:
				recs = append(recs, trace.Record{PC: 0x9004, Kind: arch.Call, Taken: true, Next: next})
			default:
				recs = append(recs, trace.Record{PC: arch.Addr(0x1000 + rng.Uint64()%8*4), Kind: arch.Cond, Taken: rng.Bool(0.5), Next: next})
			}
		}
	}
	mixed(3000)
	for i := 0; i < 2*blockTargets+500; i++ {
		recs = append(recs, trace.Record{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: arch.Addr(rng.Uint64())})
	}
	mixed(3000)

	for _, k := range []uint{1, 2, 7, 12, 20, 31, 32} {
		for _, indirect := range []bool{false, true} {
			recIDs, _, scored := internPCs(recs, indirect)
			hs, err := vlp.NewHashSet(k, vlp.DefaultMaxPath)
			if err != nil {
				t.Fatal(err)
			}
			mask := uint32(1<<k - 1)
			h := newPathPass(recs, recIDs, indirect, k, vlp.DefaultMaxPath)
			var rows int64
			j := 0 // next record to insert into hs
			for b := h.newBlock(); h.fill(b); {
				for _, r := range b.rows {
					for ; recIDs[j] < 0; j++ {
						if recs[j].Kind.RecordsInTHB() {
							hs.Insert(recs[j].Next)
						}
					}
					pn := b.seg[r.pos]
					for l := 1; l <= vlp.DefaultMaxPath; l++ {
						got := pathIndex(pn, b.seg[int(r.pos)-l], r.shift, mask)
						if want := hs.Index(l); got != want {
							t.Fatalf("k=%d indirect=%v row %d L=%d: prefix-XOR index %#x, HashSet.Index %#x", k, indirect, rows, l, got, want)
						}
						if want := hs.DirectIndex(l); got != want {
							t.Fatalf("k=%d indirect=%v row %d L=%d: prefix-XOR index %#x, DirectIndex %#x", k, indirect, rows, l, got, want)
						}
					}
					hs.Insert(recs[j].Next) // every scored record is a THB target
					j++
					rows++
				}
			}
			if rows != scored {
				t.Errorf("k=%d indirect=%v: pass yielded %d rows, class scores %d", k, indirect, rows, scored)
			}
		}
	}
}

// TestCondNextMatchesCounter: the step kernels' counter encoding (e =
// s^1, prediction e>>1, transition condNext) must track a 2-bit
// counter.Array state for state; stored zero is the initial value 1.
func TestCondNextMatchesCounter(t *testing.T) {
	for s := uint8(0); s < 4; s++ {
		for _, taken := range []bool{false, true} {
			a := counter.NewArray(1, 2, s)
			e, tb := s^1, uint8(0)
			if taken {
				tb = 1
			}
			if (e>>1 == 1) != a.Taken(0) {
				t.Errorf("s=%d: encoded prediction %d, counter predicts taken=%v", s, e>>1, a.Taken(0))
			}
			a.Train(0, taken)
			if got, want := condNext[e<<1|tb], a.Value(0)^1; got != want {
				t.Errorf("s=%d taken=%v: condNext gives %d, counter moves to %d (stored %d)", s, taken, got, a.Value(0), want)
			}
		}
	}
}

// refTwoStepCond is the pre-flat-array two-step heuristic for
// conditionals, rebuilt from the public pieces: reference step 1 above,
// then step-2 iterations that run a real vlp.Cond with a PerBranch
// selector through sim.RunCond and read per-PC mispredictions off the
// Result. The production twoStep must produce the identical Profile.
func refTwoStepCond(src trace.Source, cfg Config) (*Profile, error) {
	lengths := cfg.lengths()
	k, n := cfg.TableBits, cfg.maxPath()
	perPC, correct, _ := refStep1Cond(src, k, n, lengths)

	// Candidate sets in the reference are keyed by PC; ordering across
	// PCs is irrelevant because each branch's record array is private.
	cands := map[arch.Addr][]int{}
	for pc, row := range perPC {
		cands[pc] = topCandidates(lengths, row, cfg.candidates())
	}
	def := Step1Result{Lengths: lengths, Correct: correct}.BestLength()

	record := map[arch.Addr][]int64{}
	for pc, cs := range cands {
		record[pc] = make([]int64, len(cs))
	}
	chosen := map[arch.Addr]int{}
	for iter := 0; iter < cfg.iterations(); iter++ {
		assign := map[arch.Addr]int{}
		for pc, cs := range cands {
			ci := argmin(record[pc])
			chosen[pc] = ci
			assign[pc] = cs[ci]
		}
		p, err := vlp.NewCondBits(k, &vlp.PerBranch{Lengths: assign, Default: def}, vlp.Options{MaxPath: n})
		if err != nil {
			return nil, err
		}
		res := sim.RunCond(context.Background(), p, src, sim.Options{PerPC: true})
		if res.Err != nil {
			return nil, res.Err
		}
		for pc, ci := range chosen {
			var misses int64
			if st := res.PerPC[pc]; st != nil {
				misses = st.Mispredicts
			}
			record[pc][ci] = misses
		}
	}
	final := make(map[arch.Addr]int, len(cands))
	for pc, cs := range cands {
		final[pc] = cs[argmin(record[pc])]
	}
	return &Profile{Kind: "cond", TableBits: k, Lengths: final, Default: def}, nil
}

// refTwoStepIndirect is the indirect counterpart, driving vlp.Indirect
// through sim.RunIndirect.
func refTwoStepIndirect(src trace.Source, cfg Config) (*Profile, error) {
	lengths := cfg.lengths()
	k, n := cfg.TableBits, cfg.maxPath()
	perPC, correct, _ := refStep1Indirect(src, k, n, lengths)

	cands := map[arch.Addr][]int{}
	for pc, row := range perPC {
		cands[pc] = topCandidates(lengths, row, cfg.candidates())
	}
	def := Step1Result{Lengths: lengths, Correct: correct}.BestLength()

	record := map[arch.Addr][]int64{}
	for pc, cs := range cands {
		record[pc] = make([]int64, len(cs))
	}
	chosen := map[arch.Addr]int{}
	for iter := 0; iter < cfg.iterations(); iter++ {
		assign := map[arch.Addr]int{}
		for pc, cs := range cands {
			ci := argmin(record[pc])
			chosen[pc] = ci
			assign[pc] = cs[ci]
		}
		p, err := vlp.NewIndirectBits(k, &vlp.PerBranch{Lengths: assign, Default: def}, vlp.Options{MaxPath: n})
		if err != nil {
			return nil, err
		}
		res := sim.RunIndirect(context.Background(), p, src, sim.Options{PerPC: true})
		if res.Err != nil {
			return nil, res.Err
		}
		for pc, ci := range chosen {
			var misses int64
			if st := res.PerPC[pc]; st != nil {
				misses = st.Mispredicts
			}
			record[pc][ci] = misses
		}
	}
	final := make(map[arch.Addr]int, len(cands))
	for pc, cs := range cands {
		final[pc] = cs[argmin(record[pc])]
	}
	return &Profile{Kind: "indirect", TableBits: k, Lengths: final, Default: def}, nil
}

// TestTwoStepMatchesReference is the end-to-end flat-array differential:
// the production Cond/Indirect heuristics — interned ids, blocked step 1,
// step 2 replayed from the candidate stream — must emit exactly the
// Profile the reference implementation built from public predictors
// does, for every reference configuration.
func TestTwoStepMatchesReference(t *testing.T) {
	buf := blockFixture(t, 23)
	configs := referenceConfigs()
	want := make([]*Profile, len(configs))
	wi := make([]*Profile, len(configs))
	for i, rc := range configs {
		var err error
		if want[i], err = refTwoStepCond(buf, rc.cfg); err != nil {
			t.Fatal(err)
		}
		if wi[i], err = refTwoStepIndirect(buf, rc.cfg); err != nil {
			t.Fatal(err)
		}
	}
	withPoolCaps(t, func(t *testing.T) {
		for i, rc := range configs {
			got, agg, err := Cond(buf, rc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Default != want[i].Default {
				t.Errorf("%s cond: Default = %d, reference %d", rc.name, got.Default, want[i].Default)
			}
			if !reflect.DeepEqual(got.Lengths, want[i].Lengths) {
				t.Errorf("%s cond: assignments diverge:\n flat %v\n ref  %v", rc.name, got.Lengths, want[i].Lengths)
			}
			if agg.Total == 0 {
				t.Errorf("%s cond: step-1 aggregate empty", rc.name)
			}

			gi, _, err := Indirect(buf, rc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gi.Default != wi[i].Default {
				t.Errorf("%s indirect: Default = %d, reference %d", rc.name, gi.Default, wi[i].Default)
			}
			if !reflect.DeepEqual(gi.Lengths, wi[i].Lengths) {
				t.Errorf("%s indirect: assignments diverge:\n flat %v\n ref  %v", rc.name, gi.Lengths, wi[i].Lengths)
			}
		}
	})
}

// TestStep2RejectsMismatchedSweep: a sweep measured for another class,
// configuration or input must fail step 2 with a *MismatchError naming
// the field, never produce a profile from the wrong candidates.
func TestStep2RejectsMismatchedSweep(t *testing.T) {
	buf := profileFixture(5, 3000)
	other := profileFixture(6, 3500)
	cfg := Config{TableBits: 9}
	sw, err := Step1(buf, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Step2(buf, cfg, false, sw); err != nil {
		t.Fatalf("matching sweep refused: %v", err)
	}
	for _, c := range []struct {
		field    string
		src      *trace.Buffer
		cfg      Config
		indirect bool
	}{
		{"class", buf, cfg, true},
		{"table bits", buf, Config{TableBits: 10}, false},
		{"lengths", buf, Config{TableBits: 9, Lengths: []int{1, 2, 4, 8, 16, 32}}, false},
		{"candidates", buf, Config{TableBits: 9, Candidates: 2}, false},
		{"scored", other, cfg, false},
	} {
		_, err := Step2(c.src, c.cfg, c.indirect, sw)
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Errorf("%s: err = %v, want *MismatchError", c.field, err)
			continue
		}
		if mm.Field != c.field {
			t.Errorf("mismatch field = %q, want %q (%v)", mm.Field, c.field, err)
		}
	}
	// An input with a different static-branch population trips the
	// branch count before anything else.
	extra := trace.NewBuffer(append(append([]trace.Record(nil), buf.Records...),
		trace.Record{PC: 0xbeef0, Kind: arch.Cond, Taken: true, Next: 0xbeef4}))
	var mm *MismatchError
	if _, err := Step2(extra, cfg, false, sw); !errors.As(err, &mm) || mm.Field != "branches" {
		t.Errorf("extra branch: err = %v, want branches mismatch", err)
	}
}

// TestInternPCs pins the dense-id contract the kernels rely on:
// first-sight order, -1 for unscored records, per-class filtering.
func TestInternPCs(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: 0x3000},
		{PC: 0x9004, Kind: arch.Call, Taken: true, Next: 0xa000},
		{PC: 0x1004, Kind: arch.Cond, Taken: false, Next: 0x1008},
		{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: 0x3000},
		{PC: 0x4010, Kind: arch.Indirect, Taken: true, Next: 0x5000},
	}
	recIDs, pcs, scored := internPCs(recs, false)
	if scored != 3 {
		t.Errorf("scored = %d, want 3 conditionals", scored)
	}
	if !reflect.DeepEqual(pcs, []arch.Addr{0x2008, 0x1004}) {
		t.Errorf("pcs = %v, want first-sight order [0x2008 0x1004]", pcs)
	}
	if !reflect.DeepEqual(recIDs, []int32{0, -1, 1, 0, -1}) {
		t.Errorf("recIDs = %v", recIDs)
	}
	_, ipcs, iscored := internPCs(recs, true)
	if iscored != 1 || len(ipcs) != 1 || ipcs[0] != 0x4010 {
		t.Errorf("indirect interning = %v (%d scored)", ipcs, iscored)
	}
}
