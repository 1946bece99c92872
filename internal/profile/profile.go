// Package profile implements the paper's two-step profiling heuristic
// (§3.5) that assigns each static branch the hash function number (path
// length) used by the variable length path predictor.
//
// Step 1 simulates one fixed length path predictor per candidate hash
// function — each with its own predictor table — on the profile input, and
// records per static branch how many times each predictor was correct. The
// top candidates per branch (three in the paper) move to step 2.
//
// Step 2 simulates the real variable length path predictor (one shared
// table, hence inter-branch interference) for several iterations (seven in
// the paper). Each iteration assigns every branch its candidate with the
// fewest recorded mispredictions — untested candidates count zero, so they
// are tried first — runs the predictor, and writes each tested candidate's
// misprediction count back into the record. The final assignment is the
// per-branch candidate with the fewest recorded mispredictions.
package profile

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/engine/pool"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vlp"
)

// Config parameterises the heuristic. The zero value of each field selects
// the paper's setting.
type Config struct {
	// TableBits is the index width k of the predictor table being
	// profiled for (required, 1..32). The profile is tuned to a table
	// size; the paper profiles each hardware budget separately.
	TableBits uint
	// MaxPath is the THB depth N; 0 means vlp.DefaultMaxPath (32).
	MaxPath int
	// Lengths is the candidate hash function set; nil means 1..MaxPath
	// (all N hash functions, as in the paper's experiments). A subset
	// such as {1,2,4,8,16,32} models the cheaper implementation of §3.1.
	Lengths []int
	// Candidates per branch kept after step 1; 0 means 3.
	Candidates int
	// Iterations of step 2; 0 means 7. The paper notes it must be at
	// least the number of candidates so each gets tested.
	Iterations int
}

func (c Config) maxPath() int {
	if c.MaxPath == 0 {
		return vlp.DefaultMaxPath
	}
	return c.MaxPath
}

func (c Config) lengths() []int {
	if c.Lengths != nil {
		return c.Lengths
	}
	ls := make([]int, c.maxPath())
	for i := range ls {
		ls[i] = i + 1
	}
	return ls
}

func (c Config) candidates() int {
	if c.Candidates == 0 {
		return 3
	}
	return c.Candidates
}

func (c Config) iterations() int {
	if c.Iterations == 0 {
		return 7
	}
	return c.Iterations
}

func (c Config) validate() error {
	if c.TableBits < 1 || c.TableBits > 32 {
		return fmt.Errorf("profile: table bits %d out of range 1..32", c.TableBits)
	}
	mp := c.maxPath()
	for _, l := range c.lengths() {
		if l < 1 || l > mp {
			return fmt.Errorf("profile: candidate length %d out of range 1..%d", l, mp)
		}
	}
	if c.candidates() < 1 {
		return fmt.Errorf("profile: candidate count %d invalid", c.Candidates)
	}
	if c.iterations() < c.candidates() {
		return fmt.Errorf("profile: %d iterations cannot test %d candidates",
			c.iterations(), c.candidates())
	}
	return nil
}

// Profile is the heuristic's output: the per-branch hash function numbers
// plus the default for unprofiled branches. It is the information the
// compiler would encode into branch instructions (§4.2).
type Profile struct {
	// Kind is "cond" or "indirect".
	Kind string `json:"kind"`
	// TableBits records the table size the profile was tuned for.
	TableBits uint `json:"table_bits"`
	// Lengths maps each profiled static branch to its hash number.
	Lengths map[arch.Addr]int `json:"lengths"`
	// Default is the hash number for unprofiled branches: the candidate
	// with the highest step-1 accuracy over all profiled branches.
	Default int `json:"default"`
}

// Selector returns the vlp selector realising this profile.
func (p *Profile) Selector() *vlp.PerBranch {
	return &vlp.PerBranch{Lengths: p.Lengths, Default: p.Default}
}

// Step1Result reports the per-length aggregate accuracy measured by step 1;
// the experiment harness uses it directly for the paper's Table 2 (the
// best average fixed length).
type Step1Result struct {
	// Lengths are the candidate path lengths, ascending.
	Lengths []int
	// Correct[i] counts correct predictions by the fixed length path
	// predictor of Lengths[i] over the whole profile input.
	Correct []int64
	// Total is the number of scored dynamic branches.
	Total int64
}

// BestLength returns the candidate with the most correct predictions
// (ties to the shorter length, whose index trains faster).
func (s Step1Result) BestLength() int {
	best, bestC := s.Lengths[0], s.Correct[0]
	for i := 1; i < len(s.Lengths); i++ {
		if s.Correct[i] > bestC {
			best, bestC = s.Lengths[i], s.Correct[i]
		}
	}
	return best
}

// topCandidates returns, for one branch's per-length correct counts, the
// candidate lengths ranked by correctness (ties to shorter), at most n.
func topCandidates(lengths []int, correct []int64, n int) []int {
	idx := make([]int, len(lengths))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return correct[idx[a]] > correct[idx[b]] })
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = lengths[j]
	}
	return out
}

// Sweep is step 1's output for one profile input: the per-length
// aggregate plus each profiled branch's ranked candidate lengths, which
// is everything step 2 needs from step 1. It keeps no per-branch count
// matrix, so a caller can cache one per (input, class, table size) and
// hand it to Step2 later.
type Sweep struct {
	Step1Result
	// indirect, tableBits and candidates record what the sweep was
	// measured for; Step2 refuses a sweep measured for anything else.
	indirect   bool
	tableBits  uint
	candidates int
	// branches is the number of static branches of the class the input
	// executes. Their dense ids (first-sight order) index cands.
	branches int
	// cands holds each branch's candidate lengths, best first, stride
	// per branch.
	cands  []int32
	stride int
}

// candidatesOf returns the ranked candidate lengths of dense id.
func (s *Sweep) candidatesOf(id int) []int32 {
	return s.cands[id*s.stride : (id+1)*s.stride]
}

// MismatchError reports a step-1 sweep handed to Step2 that was measured
// for another branch class, configuration or profile input than the one
// step 2 runs on. Callers detect it with errors.As.
type MismatchError struct {
	Field string // "class", "table bits", "lengths", "candidates", "branches" or "scored"
	Sweep string // the sweep's value
	Want  string // step 2's value
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("profile: step-1 sweep has %s %s, step 2 runs with %s", e.Field, e.Sweep, e.Want)
}

// check returns a *MismatchError naming the first field in which the
// sweep differs from the step-2 run described by the arguments.
func (s *Sweep) check(cfg Config, indirect bool, branches int, scored int64) error {
	mismatch := func(field string, sweep, want any) error {
		return &MismatchError{Field: field, Sweep: fmt.Sprint(sweep), Want: fmt.Sprint(want)}
	}
	switch {
	case s.indirect != indirect:
		return mismatch("class", kindOf(s.indirect), kindOf(indirect))
	case s.tableBits != cfg.TableBits:
		return mismatch("table bits", s.tableBits, cfg.TableBits)
	case !slices.Equal(s.Lengths, cfg.lengths()):
		return mismatch("lengths", s.Lengths, cfg.lengths())
	case s.candidates != cfg.candidates():
		return mismatch("candidates", s.candidates, cfg.candidates())
	case s.branches != branches:
		return mismatch("branches", s.branches, branches)
	case s.Total != scored:
		return mismatch("scored", s.Total, scored)
	}
	return nil
}

func kindOf(indirect bool) string {
	if indirect {
		return "indirect"
	}
	return "cond"
}

// Cond runs the full two-step heuristic for conditional branches on the
// profile input and returns the per-branch assignment together with the
// step-1 aggregate.
func Cond(src trace.Source, cfg Config) (*Profile, Step1Result, error) {
	return twoStep(src, cfg, false)
}

// Indirect runs the full two-step heuristic for indirect branches.
func Indirect(src trace.Source, cfg Config) (*Profile, Step1Result, error) {
	return twoStep(src, cfg, true)
}

// twoStep runs both steps for Cond and Indirect.
func twoStep(src trace.Source, cfg Config, indirect bool) (*Profile, Step1Result, error) {
	sw, err := Step1(src, cfg, indirect)
	if err != nil {
		return nil, Step1Result{}, err
	}
	p, err := Step2(src, cfg, indirect, sw)
	if err != nil {
		return nil, Step1Result{}, err
	}
	return p, sw.Step1Result, nil
}

// --- Hot-path kernels -----------------------------------------------------
//
// Step 1 replays the profile input once per candidate hash function and
// step 2 once per iteration, so the replay loops are the pipeline's
// cost. The structural choices that keep them cheap:
//
//   - the input is materialised once into a record slice and every pass
//     iterates it directly — no Source.Next interface call per record;
//   - static branches are interned into dense ids up front (one map
//     lookup per record, once), so every pass indexes flat arrays
//     instead of touching a map per dynamic branch;
//   - the path indexes I_1..I_N depend only on the THB targets and on k,
//     never on table contents (§4.1), so each step hashes the input
//     once: step 1 hashes scored records in fixed blocks that every
//     candidate's predictor consumes, and step 2 replays all its
//     iterations from a stream of each scored record's candidate-length
//     indexes;
//   - step 1's per-candidate predictors are independent by construction
//     (private tables), so each block is replayed through them as
//     separate jobs on the engine's worker pool (engine/pool).

// blockRows is the number of scored records one hash block holds: with
// 32 lanes of uint32 indexes per row, a block is 1 MB however long the
// profile input is.
const blockRows = 8192

// asRecords exposes the record slice behind src, materialising non-buffer
// sources once so every profiling pass can iterate the slice directly.
// Profiling sources must be replayable anyway (the heuristic replays the
// input many times), so buffering them is a net saving.
func asRecords(src trace.Source) []trace.Record {
	if b, ok := src.(*trace.Buffer); ok {
		return b.Records
	}
	return trace.Collect(src).Records
}

// internPCs assigns dense ids to the static branches of the scored class,
// in first-sight order. recIDs holds one entry per record: the branch's id
// for scored records, -1 otherwise. pcs maps ids back to addresses, and
// scored counts the dynamic branches of the class.
func internPCs(recs []trace.Record, indirect bool) (recIDs []int32, pcs []arch.Addr, scored int64) {
	ids := map[arch.Addr]int32{}
	recIDs = make([]int32, len(recs))
	for j := range recs {
		r := &recs[j]
		in := r.Kind == arch.Cond
		if indirect {
			in = r.Kind.IndirectTarget()
		}
		if !in {
			recIDs[j] = -1
			continue
		}
		id, ok := ids[r.PC]
		if !ok {
			id = int32(len(pcs))
			ids[r.PC] = id
			pcs = append(pcs, r.PC)
		}
		recIDs[j] = id
		scored++
	}
	return recIDs, pcs, scored
}

func maxLength[T int | int32](lengths []T) int {
	max := 0
	for _, l := range lengths {
		if int(l) > max {
			max = int(l)
		}
	}
	return max
}

// hashBlock is one block of a shared hash pass over the profile input:
// for each of up to blockRows consecutive scored records, its dense
// branch id, its outcome (1 or 0 for a taken or not-taken conditional,
// the low 32 target bits for an indirect branch), and its path indexes
// I_1..I_stride, row-major.
type hashBlock struct {
	ids    []int32
	vals   []uint32
	lanes  []uint32
	stride int
}

// hasher is one hash pass over the profile input: a single HashSet,
// bounded to the deepest length any consumer reads, stepped once per
// THB-eligible record. fill hands the scored records' indexes out a
// block at a time, in trace order, so the pass holds one block however
// long the trace is.
type hasher struct {
	recs     []trace.Record
	recIDs   []int32
	indirect bool
	hs       *vlp.HashSet
	pos      int // next record to replay
}

func newHasher(recs []trace.Record, recIDs []int32, indirect bool, k uint, n, live int) (*hasher, error) {
	hs, err := vlp.NewHashSet(k, n)
	if err != nil {
		return nil, err
	}
	hs.SetMaxNeeded(live)
	return &hasher{recs: recs, recIDs: recIDs, indirect: indirect, hs: hs}, nil
}

// newBlock returns an empty block sized for this pass.
func (h *hasher) newBlock() *hashBlock {
	stride := h.hs.MaxNeeded()
	return &hashBlock{
		ids:    make([]int32, 0, blockRows),
		vals:   make([]uint32, 0, blockRows),
		lanes:  make([]uint32, 0, blockRows*stride),
		stride: stride,
	}
}

// fill replaces b's rows with the next blockRows scored records (fewer
// at the end of the trace) and reports whether it found any.
func (h *hasher) fill(b *hashBlock) bool {
	b.ids, b.vals, b.lanes = b.ids[:0], b.vals[:0], b.lanes[:0]
	for ; h.pos < len(h.recs) && len(b.ids) < blockRows; h.pos++ {
		r := &h.recs[h.pos]
		if id := h.recIDs[h.pos]; id >= 0 {
			v := uint32(r.Next)
			if !h.indirect {
				v = 0
				if r.Taken {
					v = 1
				}
			}
			b.ids = append(b.ids, id)
			b.vals = append(b.vals, v)
			b.lanes = h.hs.AppendIndexes(b.lanes)
		}
		if r.Kind.RecordsInTHB() {
			h.hs.Insert(r.Next)
		}
	}
	return len(b.ids) > 0
}

// candidatePred is one candidate length's fixed length path predictor: a
// private table, kept across hash blocks, and its correct counts per
// dense branch id and in total.
type candidatePred struct {
	lane    int            // column of the length in a hash block
	pht     *counter.Array // conditional table
	regs    []uint32       // indirect target registers
	counts  []int64
	correct int64
}

func newCandidatePred(length, numPCs int, indirect bool, k uint) *candidatePred {
	c := &candidatePred{lane: length - 1, counts: make([]int64, numPCs)}
	if indirect {
		c.regs = make([]uint32, 1<<k)
	} else {
		c.pht = counter.NewArray(1<<k, 2, 1)
	}
	return c
}

// consume replays one hash block through the predictor. Blocks arrive
// in trace order, which is all a private table depends on.
func (c *candidatePred) consume(b *hashBlock) {
	var hits int64
	if c.pht != nil {
		for r, id := range b.ids {
			idx := int(b.lanes[r*b.stride+c.lane])
			taken := b.vals[r] != 0
			if c.pht.Taken(idx) == taken {
				c.counts[id]++
				hits++
			}
			c.pht.Train(idx, taken)
		}
	} else {
		for r, id := range b.ids {
			idx := b.lanes[r*b.stride+c.lane]
			if c.regs[idx] == b.vals[r] {
				c.counts[id]++
				hits++
			}
			c.regs[idx] = b.vals[r]
		}
	}
	c.correct += hits
}

// step1Counts runs the step-1 sweep over all candidate lengths with one
// hash pass: each block is replayed through every candidate's predictor,
// one worker-pool job per candidate. The returned matrix is
// numPCs×len(lengths), row-major by dense id, with columns in candidate
// order — bit-identical to a sequential per-length sweep, since each
// candidate's predictor is private either way.
func step1Counts(recs []trace.Record, recIDs []int32, numPCs int, indirect bool, k uint, n int, lengths []int) (counts, correct []int64, err error) {
	h, err := newHasher(recs, recIDs, indirect, k, n, maxLength(lengths))
	if err != nil {
		return nil, nil, err
	}
	preds := make([]*candidatePred, len(lengths))
	for i, l := range lengths {
		preds[i] = newCandidatePred(l, numPCs, indirect, k)
	}
	for b := h.newBlock(); h.fill(b); {
		err := pool.ForEach(context.Background(), len(preds), func(i int) error {
			preds[i].consume(b)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	w := len(lengths)
	counts = make([]int64, numPCs*w)
	correct = make([]int64, w)
	for i, c := range preds {
		for id, n := range c.counts {
			counts[id*w+i] = n
		}
		correct[i] = c.correct
	}
	return counts, correct, nil
}

// Step1 runs the heuristic's first step on the profile input: one fixed
// length path predictor per candidate length, each with a private table.
// The returned sweep holds the per-length aggregate and every branch's
// top cfg.Candidates lengths, ready for Step2.
func Step1(src trace.Source, cfg Config, indirect bool) (*Sweep, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lengths := cfg.lengths()
	recs := asRecords(src)
	recIDs, pcs, scored := internPCs(recs, indirect)
	counts, correct, err := step1Counts(recs, recIDs, len(pcs), indirect, cfg.TableBits, cfg.maxPath(), lengths)
	if err != nil {
		return nil, err
	}
	obs.CountBranches(scored)

	w := len(lengths)
	sw := &Sweep{
		Step1Result: Step1Result{
			Lengths: append([]int(nil), lengths...),
			Correct: correct,
			Total:   scored,
		},
		indirect:   indirect,
		tableBits:  cfg.TableBits,
		candidates: cfg.candidates(),
		branches:   len(pcs),
		stride:     min(cfg.candidates(), w),
	}
	sw.cands = make([]int32, 0, len(pcs)*sw.stride)
	for id := range pcs {
		for _, l := range topCandidates(lengths, counts[id*w:(id+1)*w], sw.stride) {
			sw.cands = append(sw.cands, int32(l))
		}
	}
	return sw, nil
}

// Step2 runs the heuristic's second step on the profile input, starting
// from a step-1 sweep of that same input. The sweep must have been
// measured for the same class, table size, candidate lengths and
// candidate count; otherwise Step2 returns a *MismatchError.
//
// The test input of each pass is the profile input itself, so every
// profiled branch executes in every pass: the candidate chosen for a
// branch always has its misprediction count written back (untested
// candidates keep their implicit zero, matching the paper's
// initialisation, so they are tried first in candidate rank order).
func Step2(src trace.Source, cfg Config, indirect bool, sw *Sweep) (*Profile, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	recs := asRecords(src)
	recIDs, pcs, scored := internPCs(recs, indirect)
	if err := sw.check(cfg, indirect, len(pcs), scored); err != nil {
		return nil, err
	}
	k, c := cfg.TableBits, sw.stride
	stream, err := candidateStream(recs, recIDs, indirect, k, cfg.maxPath(), sw, scored)
	if err != nil {
		return nil, err
	}

	record := make([]int64, len(pcs)*c) // per branch, per candidate: fewest misses seen
	chosen := make([]int, len(pcs))
	misses := make([]int64, len(pcs))
	for iter := 0; iter < cfg.iterations(); iter++ {
		for id := range chosen {
			chosen[id] = argmin(record[id*c : (id+1)*c])
		}
		replayStream(recs, recIDs, stream, c, chosen, indirect, k, misses)
		obs.CountBranches(scored)
		for id, ci := range chosen {
			record[id*c+ci] = misses[id]
		}
	}
	final := make(map[arch.Addr]int, len(pcs))
	for id, pc := range pcs {
		final[pc] = int(sw.candidatesOf(id)[argmin(record[id*c:(id+1)*c])])
	}
	return &Profile{Kind: kindOf(indirect), TableBits: k, Lengths: final, Default: sw.BestLength()}, nil
}

// candidateStream hashes the input once and returns, for each scored
// record in trace order, the table indexes of its branch's candidate
// lengths: row r's candidate c sits at stream[r*stride+c]. That is every
// index any step-2 assignment can ask for, so the iterations replay
// without hashing.
func candidateStream(recs []trace.Record, recIDs []int32, indirect bool, k uint, n int, sw *Sweep, scored int64) ([]uint32, error) {
	h, err := newHasher(recs, recIDs, indirect, k, n, maxLength(sw.cands))
	if err != nil {
		return nil, err
	}
	stream := make([]uint32, 0, int(scored)*sw.stride)
	for b := h.newBlock(); h.fill(b); {
		for r, id := range b.ids {
			lanes := b.lanes[r*b.stride : (r+1)*b.stride]
			for _, l := range sw.candidatesOf(int(id)) {
				stream = append(stream, lanes[l-1])
			}
		}
	}
	return stream, nil
}

// replayStream runs one shared-table VLP pass over the record slice and
// writes per-branch misprediction counts, indexed by dense id, into
// misses. It is the devirtualised equivalent of replaying a
// vlp.Cond/Indirect built from a PerBranch selector that gives branch id
// its candidate chosen[id]: same table, same update order, but each
// index is gathered from the candidate stream instead of hashed.
func replayStream(recs []trace.Record, recIDs []int32, stream []uint32, c int, chosen []int, indirect bool, k uint, misses []int64) {
	clear(misses)
	row := 0
	if indirect {
		table := make([]uint32, 1<<k)
		for j := range recs {
			id := recIDs[j]
			if id < 0 {
				continue
			}
			idx := stream[row+chosen[id]]
			row += c
			// The register holds the low 32 target bits (§3.1
			// footnote) but the prediction it implies is a full
			// address — mirror vlp.Indirect.Predict exactly.
			next := recs[j].Next
			if arch.Addr(table[idx]) != next {
				misses[id]++
			}
			table[idx] = uint32(next)
		}
	} else {
		pht := counter.NewArray(1<<k, 2, 1)
		for j := range recs {
			id := recIDs[j]
			if id < 0 {
				continue
			}
			idx := int(stream[row+chosen[id]])
			row += c
			taken := recs[j].Taken
			if pht.Taken(idx) != taken {
				misses[id]++
			}
			pht.Train(idx, taken)
		}
	}
}

// argmin returns the index of the smallest value (first on ties, which
// makes untested zero-entries win in candidate rank order, §3.5).
func argmin(v []int64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// BestFixedLength runs only step 1 and returns the single path length with
// the highest aggregate accuracy — how the paper tunes its fixed length
// path predictors ("the length used was that for which the average
// misprediction rate for all the benchmarks was the lowest", §5.1, and
// the per-benchmark "tuned" variant of §5.2.3). For multi-benchmark
// averages, sum the returned Step1Results with MergeStep1.
func BestFixedLength(src trace.Source, cfg Config, indirect bool) (int, Step1Result, error) {
	sw, err := Step1(src, cfg, indirect)
	if err != nil {
		return 0, Step1Result{}, err
	}
	return sw.BestLength(), sw.Step1Result, nil
}

// BestAverageLength returns the length minimising the *unweighted mean* of
// the benchmarks' misprediction rates — the paper's Table 2 criterion
// ("the length used was that for which the average misprediction rate for
// all the benchmarks was the lowest", §5.1). Benchmarks with no scored
// branches are skipped. Ties go to the shorter length.
func BestAverageLength(results []Step1Result) (int, error) {
	if len(results) == 0 {
		return 0, fmt.Errorf("profile: averaging no results")
	}
	lengths := results[0].Lengths
	sumRate := make([]float64, len(lengths))
	n := 0
	for _, r := range results {
		if len(r.Lengths) != len(lengths) {
			return 0, fmt.Errorf("profile: averaging mismatched length sets")
		}
		if r.Total == 0 {
			continue
		}
		for i := range lengths {
			if r.Lengths[i] != lengths[i] {
				return 0, fmt.Errorf("profile: averaging mismatched length sets")
			}
			sumRate[i] += 1 - float64(r.Correct[i])/float64(r.Total)
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("profile: no benchmark had scored branches")
	}
	best := 0
	for i := 1; i < len(lengths); i++ {
		if sumRate[i] < sumRate[best] {
			best = i
		}
	}
	return lengths[best], nil
}

// MergeStep1 sums step-1 aggregates from several benchmarks; the result's
// BestLength is the dynamic-count-weighted cross-benchmark fixed length
// (BestAverageLength implements the paper's unweighted Table 2 criterion).
func MergeStep1(results []Step1Result) (Step1Result, error) {
	if len(results) == 0 {
		return Step1Result{}, fmt.Errorf("profile: merging no results")
	}
	out := Step1Result{
		Lengths: append([]int(nil), results[0].Lengths...),
		Correct: make([]int64, len(results[0].Correct)),
	}
	for _, r := range results {
		if len(r.Lengths) != len(out.Lengths) {
			return Step1Result{}, fmt.Errorf("profile: merging mismatched length sets")
		}
		for i := range r.Lengths {
			if r.Lengths[i] != out.Lengths[i] {
				return Step1Result{}, fmt.Errorf("profile: merging mismatched length sets")
			}
			out.Correct[i] += r.Correct[i]
		}
		out.Total += r.Total
	}
	return out, nil
}

// Ensure bpred's interfaces stay implemented by the predictors this
// package instantiates (compile-time check).
var (
	_ bpred.CondPredictor     = (*vlp.Cond)(nil)
	_ bpred.IndirectPredictor = (*vlp.Indirect)(nil)
)
