package mcdb

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/spectral"
	"repro/internal/tt"
)

// Options configures a database.
type Options struct {
	// ClassifyLimit bounds the spectral classification search
	// (default: spectral.DefaultLimit, the paper's 100000).
	ClassifyLimit int
	// MaxExactK bounds the exhaustive synthesis depth; circuits with up to
	// this many AND gates are found optimally (default 3).
	MaxExactK int
	// SearchBudget bounds each exhaustive synthesis run in operand-pair
	// evaluations (default 50e6). Exhausted budgets fall back to Davio
	// decomposition.
	SearchBudget int
}

func (o Options) withDefaults() Options {
	if o.ClassifyLimit == 0 {
		o.ClassifyLimit = spectral.DefaultLimit
	}
	if o.MaxExactK == 0 {
		o.MaxExactK = 3
	}
	if o.SearchBudget == 0 {
		o.SearchBudget = 50_000_000
	}
	return o
}

// Stats is a point-in-time snapshot of database activity; see DB.Stats.
type Stats struct {
	Classified     int // classification calls that missed the cache
	ClassCacheHits int
	Incomplete     int // classifications that hit the iteration limit
	EntryCacheHits int
	ExactSyntheses int // entries proven MC-optimal
	BoundedExact   int // always 0: every circuit exact search finds is proven minimal
	DavioFallbacks int // entries built by Davio decomposition
	Recovered      int // entries admitted from snapshots and journal replay
	Quarantined    int // persisted records rejected by checksum or validation

	// SAT refiner activity (refine.go); all zero until a Refine pass runs.
	RefineAttempts  int // entries the refiner worked on
	RefineImproved  int // entries replaced by a smaller circuit
	RefineProven    int // entries stamped proven-optimal
	RefineUnknown   int // entries left unproven within the conflict budget
	RefineRejected  int // decoded models the validation gate refused
	RefineAndsSaved int // total AND gates removed by refinement
}

// ClassHitRate returns the fraction of classification calls answered from
// the cache (0 when nothing has been classified yet).
func (s Stats) ClassHitRate() float64 {
	total := s.Classified + s.ClassCacheHits
	if total == 0 {
		return 0
	}
	return float64(s.ClassCacheHits) / float64(total)
}

// dbStats is the live, concurrency-safe counter set behind Stats.
type dbStats struct {
	classified     atomic.Int64
	classCacheHits atomic.Int64
	incomplete     atomic.Int64
	entryCacheHits atomic.Int64
	exactSyntheses atomic.Int64
	davioFallbacks atomic.Int64
	recovered      atomic.Int64
	quarantined    atomic.Int64

	refineAttempts  atomic.Int64
	refineImproved  atomic.Int64
	refineProven    atomic.Int64
	refineUnknown   atomic.Int64
	refineRejected  atomic.Int64
	refineAndsSaved atomic.Int64
}

// DB caches affine classifications and representative circuits. It plays
// the role of the paper's XAG_DB plus its classification cache. Synthesis is
// fully on demand: looking up a function classifies it, reuses or builds the
// circuit of its class representative, and re-applies the recorded affine
// operations.
//
// A DB is safe for concurrent use. Classification — the hot path shared by
// all workers of the parallel rewriting engine — goes through a sharded,
// mutex-striped cache (see cache.go) and scales with the worker count.
// Circuit synthesis is serialized behind a single mutex: it is recursive
// and runs orders of magnitude less often than classification once the
// entry cache is warm.
type DB struct {
	opts    Options
	classes *classCache

	// mu guards entries. Synthesis recursion stays inside one lock
	// acquisition: the exported accessors lock, the *Locked variants recurse
	// freely. The recursion never revisits a function it is still building:
	// each nested entryForLocked builds the representative of a Davio
	// cofactor, whose support is strictly smaller than that of the function
	// decomposed above it, so the number of variables falls at every level.
	//
	// Each function maps to a small Pareto front of mutually non-dominated
	// circuits under (MC, AndDepth), sorted by ascending MC (AndDepth and
	// XorCost breaking ties). The head of the list is the MC-best circuit —
	// the single entry the pre-Pareto database stored — so MC-model lookups
	// are unchanged; other models select from the front via EntryForModel.
	mu      sync.Mutex
	entries map[tt.T][]*Entry

	// onNew, when set, observes every entry newly admitted to the database
	// (synthesized, loaded, or merged). It runs while db.mu is held, so the
	// durable Store can journal the entry before any later lookup depends on
	// it; implementations must not call back into the DB.
	onNew func(*Entry)

	// classifySteps, when non-nil, observes the DFS step count of every
	// classification that missed the caches (installed by RegisterMetrics).
	classifySteps atomic.Pointer[metrics.Histogram]

	stats dbStats
}

// SetEntryHook installs (or, with nil, removes) the new-entry observer. The
// Store uses it to journal every admitted entry; see the field comment for
// the reentrancy contract.
func (db *DB) SetEntryHook(fn func(*Entry)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onNew = fn
}

// New returns an empty database.
func New(opts Options) *DB {
	return &DB{
		opts:    opts.withDefaults(),
		classes: newClassCache(),
		entries: make(map[tt.T][]*Entry),
	}
}

// Stats returns a snapshot of the activity counters. Safe to call while
// other goroutines use the database.
func (db *DB) Stats() Stats {
	return Stats{
		Classified:     int(db.stats.classified.Load()),
		ClassCacheHits: int(db.stats.classCacheHits.Load()),
		Incomplete:     int(db.stats.incomplete.Load()),
		EntryCacheHits: int(db.stats.entryCacheHits.Load()),
		ExactSyntheses: int(db.stats.exactSyntheses.Load()),
		DavioFallbacks: int(db.stats.davioFallbacks.Load()),
		Recovered:      int(db.stats.recovered.Load()),
		Quarantined:    int(db.stats.quarantined.Load()),

		RefineAttempts:  int(db.stats.refineAttempts.Load()),
		RefineImproved:  int(db.stats.refineImproved.Load()),
		RefineProven:    int(db.stats.refineProven.Load()),
		RefineUnknown:   int(db.stats.refineUnknown.Load()),
		RefineRejected:  int(db.stats.refineRejected.Load()),
		RefineAndsSaved: int(db.stats.refineAndsSaved.Load()),
	}
}

// NumClasses returns the number of cached classifications.
func (db *DB) NumClasses() int { return db.classes.len() }

// Classify returns the (cached) affine classification of f. Concurrent
// callers classifying the same function may duplicate the computation, but
// all of them observe the same canonical Result (first insert wins).
func (db *DB) Classify(f tt.T) spectral.Result {
	if res, ok := db.classes.get(f); ok {
		db.stats.classCacheHits.Add(1)
		return res
	}
	res := spectral.Classify(f, db.opts.ClassifyLimit)
	if h := db.classifySteps.Load(); h != nil {
		h.Observe(float64(res.Steps))
	}
	res, inserted := db.classes.put(f, res)
	db.stats.classified.Add(1)
	if inserted && !res.Complete {
		db.stats.incomplete.Add(1)
	}
	return res
}

// Lookup classifies f and returns the stored (or freshly synthesized)
// MC-best circuit of its class representative together with the
// classification. The recorded transform is AND-free, so Entry.MC() AND
// gates suffice to implement f. Callers that may discard the classification
// (the rewriting engine skips incomplete ones) should call Classify and then
// EntryForModel, so no circuit is built for a skipped function.
func (db *DB) Lookup(f tt.T) (*Entry, spectral.Result) {
	res := db.Classify(f)
	return db.EntryForModel(res.Repr, cost.MC()), res
}

// implOf summarizes a stored entry for model-driven selection.
func implOf(e *Entry) cost.Impl {
	return cost.Impl{Ands: e.MC(), Xors: e.XorCost(), Depth: e.AndDepth()}
}

// EntryForModel returns the circuit model m prefers among the stored
// implementations of repr, a class representative (Classify's Result.Repr):
// when its Pareto front holds several circuits (say, an MC-optimal one and a
// shallower one with an extra AND), m's Better ordering picks. A miss
// synthesizes the front head first. The front holds at most one circuit per
// AND count, so the MC model always picks the head.
func (db *DB) EntryForModel(repr tt.T, m cost.Model) *Entry {
	best := func() *Entry {
		// The unlock must be deferred: a panic during synthesis (e.g. a
		// corrupted entry failing verification) is recovered by the engine's
		// per-node containment, and a mutex left locked would deadlock every
		// later lookup.
		db.mu.Lock()
		defer db.mu.Unlock()
		best := db.entryForLocked(repr) // synthesizes the front head on a miss
		for _, e := range db.entries[repr][1:] {
			if m.Better(implOf(e), implOf(best)) {
				best = e
			}
		}
		return best
	}()
	// Fault-injection point: tests corrupt the returned entry here to prove
	// that the rewriter's per-replacement verification rejects it, whatever
	// the model selected.
	faultinject.Inject(faultinject.PointDBEntry, best)
	return best
}

// addEntryLocked inserts e into its function's Pareto front under
// (MC, AndDepth). Ties with an incumbent keep the incumbent — so repeated
// loads are idempotent and the head stays the first MC-best circuit seen —
// unless e carries strictly stronger proof bits (Exact, then Refined), in
// which case the proof-carrying circuit replaces the tied incumbent. That
// upgrade is what lets the refiner stamp an existing circuit proven-optimal
// and what keeps the stamp across journal replay, where the unproven
// circuit is always admitted first.
// Callers must hold db.mu, and e must already be verified.
func (db *DB) addEntryLocked(e *Entry) bool {
	list := db.entries[e.F]
	eMC, eAD := e.MC(), e.AndDepth()
	for i, old := range list {
		if old.MC() <= eMC && old.AndDepth() <= eAD {
			if old.MC() == eMC && old.AndDepth() == eAD && strongerProof(e, old) {
				list[i] = e // same Pareto point, stronger proof: swap in place
				if db.onNew != nil {
					db.onNew(e)
				}
				return true
			}
			return false // dominated by (or tied with) a stored circuit
		}
	}
	kept := list[:0:0]
	for _, old := range list {
		if eMC <= old.MC() && eAD <= old.AndDepth() {
			continue // strictly dominated by e (ties returned above)
		}
		kept = append(kept, old)
	}
	kept = append(kept, e)
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].MC() != kept[j].MC() {
			return kept[i].MC() < kept[j].MC()
		}
		if kept[i].AndDepth() != kept[j].AndDepth() {
			return kept[i].AndDepth() < kept[j].AndDepth()
		}
		return kept[i].XorCost() < kept[j].XorCost()
	})
	db.entries[e.F] = kept
	if db.onNew != nil {
		db.onNew(e)
	}
	return true
}

// strongerProof reports whether e's proof bits strictly dominate old's:
// an optimality proof (Exact) outranks everything, the Refined provenance
// mark breaks ties among equally-proven circuits.
func strongerProof(e, old *Entry) bool {
	if e.Exact != old.Exact {
		return e.Exact
	}
	return e.Refined && !old.Refined
}

// EntryFor returns a circuit computing exactly f (no classification of f
// itself; subfunctions encountered during synthesis are classified and
// cached by class). Entries are immutable once returned.
func (db *DB) EntryFor(f tt.T) *Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.entryForLocked(f)
}

func (db *DB) entryForLocked(f tt.T) *Entry {
	if list, ok := db.entries[f]; ok {
		db.stats.entryCacheHits.Add(1)
		return list[0]
	}
	e := db.synthesize(f)
	if err := e.Verify(); err != nil {
		panic(err) // internal invariant: every stored entry computes F
	}
	db.entries[f] = []*Entry{e}
	if db.onNew != nil {
		db.onNew(e)
	}
	return e
}

// andCostLocked returns the AND count of the best circuit the database can
// build for f. Callers must hold db.mu.
func (db *DB) andCostLocked(f tt.T) int {
	if _, _, ok := f.IsAffine(); ok {
		return 0
	}
	sh, _ := f.Shrink()
	return db.entryForLocked(db.Classify(sh).Repr).MC()
}

// synthesize builds the best circuit the database can find for f.
// Callers must hold db.mu.
func (db *DB) synthesize(f tt.T) *Entry {
	b := &builder{n: f.N, exact: true}
	out := db.emitDirect(b, f)
	return &Entry{
		N:     f.N,
		F:     f,
		Steps: b.steps,
		Out:   out,
		Exact: b.exact,
	}
}

// builder assembles an SLP; the emit functions return basis masks.
type builder struct {
	n     int
	steps []Step
	exact bool // true while the whole construction is proven optimal
}

func (b *builder) and(l, m uint32) uint32 {
	b.steps = append(b.steps, Step{L: l, M: m})
	return 1 << uint(1+b.n+len(b.steps)-1)
}

func affineMask(mask uint, compl bool, varBit func(int) uint32, n int) uint32 {
	var out uint32
	for i := 0; i < n; i++ {
		if mask>>uint(i)&1 == 1 {
			out ^= varBit(i)
		}
	}
	if compl {
		out ^= 1
	}
	return out
}

// emit appends gates computing f to the builder and returns the output
// mask. Subfunctions are classified so that circuits are shared per affine
// class. Callers must hold db.mu.
func (db *DB) emit(b *builder, f tt.T) uint32 {
	if mask, compl, ok := f.IsAffine(); ok {
		return affineMask(mask, compl, func(i int) uint32 { return 1 << uint(1+i) }, f.N)
	}
	sh, support := f.Shrink()
	res := db.Classify(sh)
	e := db.entryForLocked(res.Repr)
	if !e.Exact {
		b.exact = false
	}
	return inlineTransformed(b, e, res.Tr, support)
}

// emitDirect synthesizes f without classifying f itself: exhaustive search
// first, then Davio decomposition whose subfunctions go back through emit.
// Callers must hold db.mu.
func (db *DB) emitDirect(b *builder, f tt.T) uint32 {
	if mask, compl, ok := f.IsAffine(); ok {
		return affineMask(mask, compl, func(i int) uint32 { return 1 << uint(1+i) }, f.N)
	}

	// Shrink to the support and search there: the exhaustive search cost
	// grows with 4^(basis size). The budget shrinks with the support so
	// that wide functions whose optimality proof is out of reach abort to
	// the Davio fallback quickly; up to four variables the full budget
	// always suffices for a proven-optimal circuit.
	sh, support := f.Shrink()
	budget := db.opts.SearchBudget
	for n := sh.N; n > 4; n-- {
		budget /= 16
	}
	if e, _ := ExactSearch(sh, db.opts.MaxExactK, budget); e != nil {
		db.stats.exactSyntheses.Add(1)
		return inlineTransformed(b, e, identityTransform(sh.N), support)
	}
	b.exact = false
	db.stats.davioFallbacks.Add(1)

	// Affine Davio decomposition on the cheapest support variable:
	// f = f0 ⊕ x_i ∧ (f0 ⊕ f1).
	bestI, bestCost := -1, 1<<21
	for i := 0; i < f.N; i++ {
		if !f.DependsOn(i) {
			continue
		}
		f0 := f.Cofactor(i, false)
		g := f0.Xor(f.Cofactor(i, true))
		if c := db.andCostLocked(f0) + db.andCostLocked(g) + 1; c < bestCost {
			bestI, bestCost = i, c
		}
	}
	f0 := f.Cofactor(bestI, false)
	g := f0.Xor(f.Cofactor(bestI, true))
	out0 := db.emit(b, f0)
	outG := db.emit(b, g)
	a := b.and(1<<uint(1+bestI), outG)
	return out0 ^ a
}

func identityTransform(n int) spectral.Transform {
	tr := spectral.Transform{N: n}
	for i := 0; i < n; i++ {
		tr.InputMask[i] = 1 << uint(i)
	}
	return tr
}

// inlineTransformed copies entry e (over shrunk variables) into the builder,
// wrapping it in the affine transform tr and renaming shrunk variable j to
// the builder variable at the j-th set bit of support (tt.T.Shrink's mask).
// The transform and renaming are XOR/complement only, so no AND gates are
// added beyond e's steps.
func inlineTransformed(b *builder, e *Entry, tr spectral.Transform, support uint) uint32 {
	var from [tt.MaxVars]int
	for j, s := 0, support; s != 0; j, s = j+1, s&(s-1) {
		from[j] = bits.TrailingZeros(s)
	}
	varBit := func(j int) uint32 { return 1 << uint(1+from[j]) }
	// val[i] is the builder-basis mask of entry basis element i.
	val := make([]uint32, 1+e.N+len(e.Steps))
	val[0] = 1
	for i := 0; i < e.N; i++ {
		val[1+i] = affineMask(tr.InputMask[i], tr.InputCompl[i], varBit, e.N)
	}
	translate := func(mask uint32) uint32 {
		var out uint32
		for mask != 0 {
			i := bits.TrailingZeros32(mask)
			mask &= mask - 1
			out ^= val[i]
		}
		return out
	}
	for si, st := range e.Steps {
		a := b.and(translate(st.L), translate(st.M))
		val[1+e.N+si] = a
	}
	out := translate(e.Out)
	out ^= affineMask(tr.OutputMask, tr.OutputCompl, varBit, e.N)
	return out
}
