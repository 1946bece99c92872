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
//   - every path index is O(1) from one running value per THB target.
//     With t_i the i-th THB target compressed to k bits, n the number
//     of targets inserted so far, and rotl_k/rotr_k rotations within k
//     bits, let
//
//         P(0) = 0,  P(i) = P(i-1) ^ rotr_k(t_i, i mod k).
//
//     Then the §3.3 index of every length L is
//
//         I_L = rotl_k(P(n) ^ P(max(n-L, 0)), n mod k):
//
//     the XOR telescopes to the XOR over j < L of rotr_k(t_{n-j}, n-j),
//     and the outer rotation turns each term into rotl_k(t_{n-j}, j),
//     the §3.3 definition; with n < L the missing terms are the
//     zero-initialised registers. So the pass (pathPass) costs one
//     rotate and one XOR per target, a reader of any length pays two
//     loads, an XOR and a rotate, and no 32-register bank is stepped
//     anywhere in profiling;
//   - step 1's per-candidate predictors are independent by construction
//     (private tables), so each block of the pass is replayed through
//     them as jobs on the engine's worker pool (engine/pool). A job is a
//     group of candidates that computes its own indexes from the block,
//     so the hashing runs in the parallel part, and its counter update
//     has no branches;
//   - step 2 turns the same pass into a stream of every scored record's
//     candidate-length indexes once, and all its iterations replay the
//     stream.

// blockTargets is the number of THB targets one block of the pass
// covers. Every scored record is a THB target too, so a block also holds
// at most this many rows: 16 B a row and 8 B a target, about 192 KB
// however long the profile input is.
const blockTargets = 8192

// groupSize is the number of candidate lengths one step-1 pool job
// replays, reading each row of a block once for all of them.
const groupSize = 4

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

// double returns the k-bit value x as x | x<<k. Shifting that right by
// r and masking to k bits rotates x right by r, or left by k-r
// (0 <= r <= k), and doubling commutes with XOR, so the pass stores P
// doubled and a reader's rotation is one shift. Masking the shift
// counts lets the compiler drop its oversize-shift fixup.
func double(x uint32, k uint) uint64 {
	return uint64(x) | uint64(x)<<(k&63)
}

// pathIndex returns I_L from a row's doubled P(n) and P(n-L) and its
// shift, k - n mod k: rotl_k(P(n) ^ P(n-L), n mod k).
func pathIndex(dn, dl uint64, shift uint32, mask uint32) uint32 {
	return uint32((dn^dl)>>(shift&63)) & mask
}

// pathRow is one scored record of a block: its dense branch id, its
// outcome (1 or 0 for a taken or not-taken conditional, the low 32
// target bits for an indirect branch), the position of its P(n) in the
// block's segment, and its pathIndex shift.
type pathRow struct {
	id    int32
	val   uint32
	pos   uint32
	shift uint32
}

// pathBlock is one block of the prefix-XOR pass: the doubled P values
// of up to blockTargets consecutive THB targets, preceded by the
// carry+1 values before them, and the scored records among those
// targets.
type pathBlock struct {
	rows []pathRow
	seg  []uint64
}

// pathPass is the prefix-XOR pass over the profile input. It steps P
// once per THB-eligible record and hands the scored records out a block
// at a time, in trace order, so the pass holds one block however long
// the trace is.
type pathPass struct {
	recs     []trace.Record
	recIDs   []int32
	indirect bool
	k        uint
	mask     uint32
	carry    int    // deepest length any reader asks for
	pos      int    // next record to replay
	p        uint32 // P(n)
	phase    uint   // n mod k
}

func newPathPass(recs []trace.Record, recIDs []int32, indirect bool, k uint, carry int) *pathPass {
	return &pathPass{recs: recs, recIDs: recIDs, indirect: indirect, k: k, mask: uint32(1<<k - 1), carry: carry}
}

// newBlock returns an empty block sized for this pass. Its segment
// starts as carry+1 zeros: P is 0 at and before the first target, which
// is how a row with fewer than L targets behind it reads P(max(n-L, 0)).
func (h *pathPass) newBlock() *pathBlock {
	return &pathBlock{
		rows: make([]pathRow, 0, blockTargets),
		seg:  make([]uint64, h.carry+1, h.carry+1+blockTargets),
	}
}

// fill replaces b's rows with the scored records among the next
// blockTargets THB targets, carrying the last carry+1 P values to the
// front of the segment, and reports whether it found any. A stretch of
// targets without a scored record is passed over.
func (h *pathPass) fill(b *pathBlock) bool {
	b.rows = b.rows[:0]
	for len(b.rows) == 0 && h.pos < len(h.recs) {
		b.seg = b.seg[:copy(b.seg, b.seg[len(b.seg)-h.carry-1:])]
		for ; h.pos < len(h.recs) && len(b.seg) < cap(b.seg); h.pos++ {
			r := &h.recs[h.pos]
			if id := h.recIDs[h.pos]; id >= 0 {
				v := uint32(r.Next)
				if !h.indirect {
					v = 0
					if r.Taken {
						v = 1
					}
				}
				b.rows = append(b.rows, pathRow{id: id, val: v, pos: uint32(len(b.seg) - 1), shift: uint32(h.k - h.phase)})
			}
			if r.Kind.RecordsInTHB() {
				// Compressed as vlp.HashSet does: drop the two
				// always-zero PC bits, then the high-order bits.
				t := uint32(uint64(r.Next)>>2) & h.mask
				if h.phase++; h.phase == h.k {
					h.phase = 0
				}
				h.p ^= uint32(double(t, h.k)>>(h.phase&63)) & h.mask
				b.seg = append(b.seg, double(h.p, h.k))
			}
		}
	}
	return len(b.rows) > 0
}

// condNext is the 2-bit saturating counter's transition, indexed by
// e<<1 | taken, for a counter stored as e = s^1 (s its value 0..3):
// stored zero is the initial value 1 (weakly not-taken), so a table
// straight from make needs no fill, and the prediction is e>>1, since
// s >= 2 exactly when e >= 2.
var condNext = [8]uint8{
	0<<1 | 0: 1, // s 1 -> 0
	0<<1 | 1: 3, // s 1 -> 2
	1<<1 | 0: 1, // s 0 -> 0
	1<<1 | 1: 0, // s 0 -> 1
	2<<1 | 0: 3, // s 3 -> 2
	2<<1 | 1: 2, // s 3 -> 3
	3<<1 | 0: 0, // s 2 -> 1
	3<<1 | 1: 2, // s 2 -> 3
}

// candidateGroup is the fixed length path predictors of up to groupSize
// candidate lengths: a private table each, kept across blocks, and
// their correct counts per dense branch id, counts[id*len(lengths)+j].
// The tables stay separate allocations: one table of len(lengths)<<k
// entries was as fast but raised the suite's peak RSS by about 10%.
type candidateGroup struct {
	lengths []int
	pht     [][]uint8  // conditional counters, stored as in condNext
	regs    [][]uint32 // indirect target registers
	counts  []int64
}

func newCandidateGroup(lengths []int, numPCs int, indirect bool, k uint) *candidateGroup {
	g := &candidateGroup{lengths: lengths, counts: make([]int64, numPCs*len(lengths))}
	for range lengths {
		if indirect {
			g.regs = append(g.regs, make([]uint32, 1<<k))
		} else {
			g.pht = append(g.pht, make([]uint8, 1<<k))
		}
	}
	return g
}

// consume replays one block through the group's predictors, computing
// each index from the block's P segment. Blocks arrive in trace order,
// which is all a private table depends on.
func (g *candidateGroup) consume(b *pathBlock, k uint) {
	mask := uint32(1<<k - 1)
	w := len(g.lengths)
	seg := b.seg
	if g.regs != nil {
		for _, r := range b.rows {
			pn := seg[r.pos]
			cnt := g.counts[int(r.id)*w:][:w]
			for j, l := range g.lengths {
				regs := g.regs[j]
				idx := pathIndex(pn, seg[int(r.pos)-l], r.shift, mask)
				hit := int64(0)
				if regs[idx] == r.val {
					hit = 1
				}
				cnt[j] += hit
				regs[idx] = r.val
			}
		}
		return
	}
	for _, r := range b.rows {
		pn := seg[r.pos]
		t := uint8(r.val)
		cnt := g.counts[int(r.id)*w:][:w]
		for j, l := range g.lengths {
			pht := g.pht[j]
			idx := pathIndex(pn, seg[int(r.pos)-l], r.shift, mask)
			e := pht[idx]
			cnt[j] += int64(1 ^ (e>>1 ^ t))
			pht[idx] = condNext[(e<<1|t)&7]
		}
	}
}

// step1Counts runs the step-1 sweep over all candidate lengths with one
// prefix-XOR pass: each block is replayed through every candidate's
// predictor, one worker-pool job per group of groupSize candidates. The
// returned matrix is numPCs×len(lengths), row-major by dense id, with
// columns in candidate order — bit-identical to a sequential per-length
// sweep, since each candidate's predictor is private either way.
func step1Counts(recs []trace.Record, recIDs []int32, numPCs int, indirect bool, k uint, lengths []int) (counts, correct []int64, err error) {
	var groups []*candidateGroup
	for i := 0; i < len(lengths); i += groupSize {
		groups = append(groups, newCandidateGroup(lengths[i:min(i+groupSize, len(lengths))], numPCs, indirect, k))
	}
	h := newPathPass(recs, recIDs, indirect, k, maxLength(lengths))
	for b := h.newBlock(); h.fill(b); {
		err := pool.ForEach(context.Background(), len(groups), func(i int) error {
			groups[i].consume(b, k)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	w := len(lengths)
	counts = make([]int64, numPCs*w)
	correct = make([]int64, w)
	for gi, g := range groups {
		gw := len(g.lengths)
		for id := 0; id < numPCs; id++ {
			for j, n := range g.counts[id*gw : (id+1)*gw] {
				counts[id*w+gi*groupSize+j] = n
				correct[gi*groupSize+j] += n
			}
		}
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
	counts, correct, err := step1Counts(recs, recIDs, len(pcs), indirect, cfg.TableBits, lengths)
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
	stream := candidateStream(recs, recIDs, indirect, k, sw, scored)

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

// candidateStream runs the prefix-XOR pass once and returns, for each
// scored record in trace order, the table indexes of its branch's
// candidate lengths: row r's candidate c sits at stream[r*stride+c].
// That is every index any step-2 assignment can ask for, so the
// iterations replay without hashing.
func candidateStream(recs []trace.Record, recIDs []int32, indirect bool, k uint, sw *Sweep, scored int64) []uint32 {
	mask := uint32(1<<k - 1)
	h := newPathPass(recs, recIDs, indirect, k, maxLength(sw.cands))
	stream := make([]uint32, 0, int(scored)*sw.stride)
	for b := h.newBlock(); h.fill(b); {
		for _, r := range b.rows {
			pn := b.seg[r.pos]
			for _, l := range sw.candidatesOf(int(r.id)) {
				stream = append(stream, pathIndex(pn, b.seg[int(r.pos)-int(l)], r.shift, mask))
			}
		}
	}
	return stream
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
		pht := make([]uint8, 1<<k) // stored as in condNext
		for j := range recs {
			id := recIDs[j]
			if id < 0 {
				continue
			}
			idx := stream[row+chosen[id]]
			row += c
			t := uint8(0)
			if recs[j].Taken {
				t = 1
			}
			e := pht[idx]
			misses[id] += int64(e>>1 ^ t)
			pht[idx] = condNext[(e<<1|t)&7]
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
