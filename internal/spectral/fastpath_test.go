package spectral

// Cross-validation of the pooled, multiset-bounded canonizer against (a) the
// exact orbit tables for every function of up to four variables and (b) a
// frozen copy of the pre-optimization search (refClassifySpectral below) for
// larger functions. The reference is the verbatim pre-fast-path algorithm —
// per-bit loops, insertion sort, no pooling, no multiset bound — and the
// comparison is on the FULL Result including Steps, so any step-accounting
// drift in the fast path fails loudly here before it can flip a
// Complete-under-limit verdict in the golden suite.

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/tt"
)

// --- frozen reference implementation (pre-optimization search) ---

type refCanonizer struct {
	n, size   int
	s         []int32
	limit     int
	steps     int
	exhausted bool

	bw  []int
	sg  []int32
	cur []int32
	v   []int
	sig []int32

	spanBuf [][]bool
	candBuf [][]cand

	best      []int32
	bestM     int
	bestEps   int32
	bestV     []int
	bestSigma []int32
}

func refClassifySpectral(t tt.T, limit int) Result {
	if limit <= 0 {
		limit = DefaultLimit
	}
	n := t.N
	size := 1 << uint(n)

	if mask, compl, ok := t.IsAffine(); ok {
		tr := Transform{N: n, OutputMask: mask, OutputCompl: compl}
		for i := 0; i < n; i++ {
			tr.InputMask[i] = 1 << uint(i)
		}
		return Result{Repr: tt.Const0(n), Tr: tr, Complete: true}
	}

	s := Spectrum(t)
	var maxAbs int32
	for _, v := range s {
		if a := abs32(v); a > maxAbs {
			maxAbs = a
		}
	}

	c := &refCanonizer{n: n, size: size, s: s, limit: limit}
	for m := 0; m < size; m++ {
		if abs32(s[m]) != maxAbs {
			continue
		}
		for _, eps := range []int32{1, -1} {
			if eps*s[m] < 0 {
				continue
			}
			if maxAbs == 0 {
				continue
			}
			c.search(m, eps)
		}
	}

	repr, err := FromSpectrum(c.best, n)
	if err != nil {
		panic("spectral: internal error: " + err.Error())
	}

	tr := Transform{N: n, OutputMask: uint(c.bestM), OutputCompl: c.bestEps < 0}
	for i := 0; i < n; i++ {
		tr.InputMask[i] = uint(c.bestV[i])
		tr.InputCompl[i] = c.bestSigma[i] < 0
	}
	return Result{Repr: repr, Tr: tr, Complete: !c.exhausted, Steps: c.steps}
}

func (c *refCanonizer) search(m int, eps int32) {
	if c.bw == nil {
		c.bw = make([]int, c.size)
		c.sg = make([]int32, c.size)
		c.cur = make([]int32, c.size)
		c.v = make([]int, c.n)
		c.sig = make([]int32, c.n)
		c.spanBuf = make([][]bool, c.n)
		c.candBuf = make([][]cand, c.n)
		for i := 0; i < c.n; i++ {
			c.spanBuf[i] = make([]bool, c.size)
			c.candBuf[i] = make([]cand, 0, 2*c.size)
		}
	}
	c.bw[0] = m
	c.sg[0] = 1
	c.cur[0] = eps * c.s[m]
	better := c.best == nil
	if !better {
		if c.cur[0] < c.best[0] {
			return
		}
		if c.cur[0] > c.best[0] {
			better = true
		}
	}
	c.dfs(0, m, eps, better)
}

func (c *refCanonizer) dfs(i, m int, eps int32, better bool) {
	if c.overLimit() {
		return
	}
	if i == c.n {
		if better {
			c.commit(m, eps)
		}
		return
	}
	lo := 1 << uint(i)

	inSpan := c.spanBuf[i]
	for w := range inSpan {
		inSpan[w] = false
	}
	for w := 0; w < lo; w++ {
		inSpan[c.bw[w]^m] = true
	}

	cands := c.candBuf[i][:0]
	for v := 1; v < c.size; v++ {
		if inSpan[v] {
			continue
		}
		sv := c.s[v^m]
		cands = append(cands, cand{v, 1, eps * sv}, cand{v, -1, -eps * sv})
	}
	refSortCands(cands)

	for _, cd := range cands {
		c.steps++
		if c.overLimit() {
			return
		}
		branchBetter := better
		if !branchBetter {
			if cd.val < c.best[lo] {
				break
			}
			if cd.val > c.best[lo] {
				branchBetter = true
			}
		}
		c.v[i], c.sig[i] = cd.v, cd.sig
		ok := true
		c.steps += lo
		for w := lo; w < lo<<1; w++ {
			c.bw[w] = c.bw[w-lo] ^ cd.v
			c.sg[w] = c.sg[w-lo] * cd.sig
			c.cur[w] = eps * c.sg[w] * c.s[c.bw[w]]
			if !branchBetter {
				if c.cur[w] < c.best[w] {
					ok = false
					break
				}
				if c.cur[w] > c.best[w] {
					branchBetter = true
				}
			}
		}
		if !ok {
			continue
		}
		c.dfs(i+1, m, eps, branchBetter)
		if c.overLimit() {
			return
		}
	}
}

func (c *refCanonizer) overLimit() bool {
	if c.steps >= c.limit && c.best != nil {
		c.exhausted = true
		return true
	}
	return false
}

func (c *refCanonizer) commit(m int, eps int32) {
	if c.best == nil {
		c.best = make([]int32, c.size)
		c.bestV = make([]int, c.n)
		c.bestSigma = make([]int32, c.n)
	} else {
		for w := 0; w < c.size; w++ {
			if c.cur[w] > c.best[w] {
				break
			}
			if c.cur[w] < c.best[w] {
				return
			}
		}
	}
	copy(c.best, c.cur)
	c.bestM = m
	c.bestEps = eps
	copy(c.bestV, c.v)
	copy(c.bestSigma, c.sig)
}

// refSortCands is the original O(k²) insertion sort (stable, descending).
func refSortCands(cs []cand) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].val > cs[j-1].val; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// --- cross-validation tests ---

func resultsEqual(a, b Result) bool {
	return a.Repr == b.Repr && a.Tr == b.Tr && a.Complete == b.Complete && a.Steps == b.Steps
}

// TestFastPathExhaustiveSmall classifies every function of up to four
// variables with the optimized spectral search and checks it against both the
// frozen reference (full Result equality) and the exact orbit tables
// (class-partition agreement: two functions share an exact representative iff
// their complete spectral searches agree on the spectral representative).
func TestFastPathExhaustiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation skipped in -short")
	}
	if raceEnabled {
		t.Skip("exhaustive cross-validation skipped under -race: it pins step accounting, not memory safety")
	}
	for n := 0; n <= 4; n++ {
		size := 1 << (1 << uint(n))
		// Tie-heavy functions (bent and near-bent spectra) make an unbounded
		// n=4 search explode, so the exhaustive sweep runs under a bounded
		// limit: full-Result equality (including Steps and Complete) is
		// checked for every function, the exact-table partition check for
		// the complete ones. 20k keeps the sweep to a few seconds while
		// still driving plenty of searches into the limit-bound regime where
		// step accounting is observable.
		limit := 20000
		if n <= 3 {
			limit = 1 << 30 // cheap enough to run to completion
		}
		// spectral repr → exact repr; the partitions must be refinements of
		// each other (i.e. identical).
		classOf := make(map[tt.T]tt.T)
		for bitsv := 0; bitsv < size; bitsv++ {
			f := tt.New(uint64(bitsv), n)
			got := ClassifySpectral(f, limit)
			want := refClassifySpectral(f, limit)
			if !resultsEqual(got, want) {
				t.Fatalf("n=%d f=%#x: fast path diverges from reference:\n got %+v\nwant %+v",
					n, f.Bits, got, want)
			}
			if back := got.Tr.Apply(got.Repr); back != f {
				t.Fatalf("n=%d f=%#x: transform does not reconstruct f (got %#x)", n, f.Bits, back.Bits)
			}
			if n <= 3 && !got.Complete {
				t.Fatalf("n=%d f=%#x: unexpectedly incomplete under huge limit", n, f.Bits)
			}
			if !got.Complete {
				continue
			}
			exact := classifyExact(f)
			if prev, seen := classOf[got.Repr]; seen {
				if prev != exact.Repr {
					t.Fatalf("n=%d f=%#x: spectral class %v maps to exact reprs %v and %v",
						n, f.Bits, got.Repr, prev, exact.Repr)
				}
			} else {
				classOf[got.Repr] = exact.Repr
			}
		}
	}
}

// TestFastPathRandomLarge pins the optimized search to the frozen reference
// on random 5- and 6-variable functions, across limits that exercise both
// complete and limit-bound searches (the incomplete case is where step
// accounting becomes observable).
func TestFastPathRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 150
	if testing.Short() {
		trials = 25
	}
	for _, n := range []int{5, 6} {
		for _, limit := range []int{0, 50, 5000, DefaultLimit} {
			for trial := 0; trial < trials; trial++ {
				f := tt.New(rng.Uint64(), n)
				got := ClassifySpectral(f, limit)
				want := refClassifySpectral(f, limit)
				if !resultsEqual(got, want) {
					t.Fatalf("n=%d limit=%d f=%#x: fast path diverges:\n got %+v\nwant %+v",
						n, limit, f.Bits, got, want)
				}
				if back := got.Tr.Apply(got.Repr); back != f {
					t.Fatalf("n=%d f=%#x: transform does not reconstruct f", n, f.Bits)
				}
			}
		}
	}
}

// TestSortCandsMatchesInsertion pins the fused generate-and-counting-sort
// candidate pass to the original generate-then-insertion-sort bit-for-bit,
// including the relative order of equal values — the DFS candidate order
// (and with it the pinned step accounting) depends on it.
func TestSortCandsMatchesInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := newCanonizer()
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(tt.MaxVars)
		size := 1 << uint(n)
		c.reset(n, size, 1)
		// Duplicate-heavy spectrum values in the legal coefficient range.
		for i := 0; i < size; i++ {
			c.s[i] = int32(rng.Intn(2*size/8+1)*8 - size)
			c.sneg[i] = -c.s[i]
		}
		eps := int32(1 - 2*rng.Intn(2))
		if eps > 0 {
			c.es = c.s
		} else {
			c.es = c.sneg
		}
		m := rng.Intn(size)
		// A random span bitmask containing offset 0 (the prefix always owns
		// bw[0] ⊕ m = 0), leaving at least one column free.
		span := (rng.Uint64() & rng.Uint64() & (uint64(1)<<uint(size) - 1)) | 1
		if bits.OnesCount64(span) == size {
			span &^= uint64(1) << uint(size-1)
		}

		got := c.collectCands(c.candBuf[0], span, m)

		// Reference: generate in ascending column order, then stable O(k²)
		// insertion sort (the original pre-optimization pipeline).
		var want []cand
		for v := 1; v < size; v++ {
			if span>>uint(v)&1 != 0 {
				continue
			}
			sv := eps * c.s[v^m]
			want = append(want, cand{v, 1, sv}, cand{v, -1, -sv})
		}
		refSortCands(want)

		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestClassifyAllocFree pins the zero-allocation steady state of the pooled
// classifier for every variable count, both the exact-table and spectral
// paths.
func TestClassifyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count not pinned under -race: the race detector's sync.Pool drops pooled items at random")
	}
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= tt.MaxVars; n++ {
		fns := make([]tt.T, 32)
		for i := range fns {
			fns[i] = tt.New(rng.Uint64(), n)
		}
		// Warm the pool (and the exact tables for n ≤ 4).
		for _, f := range fns {
			Classify(f, 0)
		}
		i := 0
		avg := testing.AllocsPerRun(64, func() {
			Classify(fns[i%len(fns)], 0)
			i++
		})
		if avg != 0 {
			t.Fatalf("n=%d: Classify allocates %.1f times per run in steady state, want 0", n, avg)
		}
	}
}
