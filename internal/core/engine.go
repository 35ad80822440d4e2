package core

import (
	"context"
	"math/bits"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/cut"
	"repro/internal/faultinject"
	"repro/internal/mcdb"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/tt"
	"repro/internal/xag"
)

// Engine is a rewriting engine with an owner for its cache state: the
// database (classification cache + representative circuits) lives for the
// engine's lifetime, so every round — and every subsequent network pushed
// through the same engine — reuses prior classifications. Engines created
// with Workers > 1 run the classification stage of each round on a bounded
// worker pool; the committed result is bit-identical for any worker count.
//
// A round is a three-stage pipeline:
//
//  1. enumerate: k-feasible priority cuts for every node (level-parallel);
//  2. classify: workers shard the nodes, shrink each cut function,
//     affine-classify it and, when the classification is usable, fetch the
//     representative circuit from the shared database — the expensive,
//     embarrassingly parallel part. No worker touches the network; each
//     writes only its own result slots.
//  3. commit: a single goroutine walks the nodes in id order, re-validates
//     every candidate's gain against the evolving network (MFFC, leaf
//     liveness), applies the winners, and runs the always-on
//     per-replacement truth-table check.
//
// Because stage 2 computes pure per-cut facts (deterministic classification
// and synthesis results keyed by truth table) and stage 3 is sequential in
// node order, the committed network never depends on worker scheduling.
//
// An Engine itself must be used from one goroutine at a time (the
// parallelism lives inside Round); the database it owns may be shared.
type Engine struct {
	db   *mcdb.DB
	opts Options
	deg  Degradation
	met  engineMetrics

	logMu sync.Mutex // serializes Options.Logf calls from workers

	// Commit-stage scratch (the commit loop is single-threaded): reusable
	// MFFC buffers, a leaf-id buffer, a leaf-literal buffer, and TFI-walk
	// stamps, so gain re-validation, realization and the feedback check
	// allocate nothing per candidate.
	cone    xag.ConeScratch
	leafBuf []int
	litBuf  []xag.Lit
	tfi     xag.TFIScratch
}

// NewEngine returns an engine over db (one is created when nil) with the
// given options. MaxRounds and Verify are ignored here — they belong to the
// Minimize convergence loop; Round always performs exactly one pass.
func NewEngine(db *mcdb.DB, opts Options) *Engine {
	opts = opts.withDefaults()
	if db == nil {
		db = mcdb.New(mcdb.Options{})
	}
	e := &Engine{db: db, opts: opts, met: newEngineMetrics(opts.Metrics)}
	if opts.Metrics != nil {
		db.RegisterMetrics(opts.Metrics)
	}
	return e
}

// DB returns the engine's database (shared classification and entry cache).
func (e *Engine) DB() *mcdb.DB { return e.db }

// Degraded returns the fault counters accumulated over all rounds run so
// far on this engine.
func (e *Engine) Degraded() Degradation { return e.deg }

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf == nil {
		return
	}
	e.logMu.Lock()
	defer e.logMu.Unlock()
	e.opts.Logf(format, args...)
}

// Round performs one rewriting pass (Algorithm 1) over all gates of the
// network and returns the cleaned-up result. The input must be compact
// (freshly built or Cleanup'ed); it is consumed by the call. A non-nil
// error reports cancellation; the returned network is still valid and
// reflects the replacements committed before the interruption.
//
// Round keeps no state between calls, so callers may feed it unrelated
// networks: every call enumerates and classifies every gate. Looping it to
// convergence is the full-recompute reference that Minimize, with its
// cross-round cut seeds, matches byte for byte.
func (e *Engine) Round(ctx context.Context, net *xag.Network) (*xag.Network, RoundStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	degBefore := e.deg
	out, stats, err := e.round(ctx, net, &e.deg, nil)
	e.met.observeDegradation(e.deg.sub(degBefore))
	return out, stats, err
}

// prepared is the precomputed, network-independent part of one cut's
// replacement candidate, a flat value: the cut, the leaves its shrunk
// function depends on, that function, and the verdict stage 2 reached for
// it, which every candidate of the function shares. Gain and leaf liveness
// are deliberately absent — they depend on the evolving network and are
// re-validated at commit time.
type prepared struct {
	cut     int32     // index into the node's cut list
	support uint8     // bit i: leaf i of the cut is a variable of want (tt.T.Shrink's mask)
	want    tt.T      // shrunk cut function (after fault injection)
	verdict *memoPrep // a constant or a usable entry, never a skip
}

// round runs one three-stage pass. When inc is non-nil the round consumes
// inc's seeds (cut lists of nodes untouched by the previous round) and
// refills inc with seeds for the next round; a nil inc is a stateless full
// round. The committed result is bit-identical either way: seeds are reused
// only when provably equal to a fresh recomputation.
func (e *Engine) round(ctx context.Context, net *xag.Network, deg *Degradation, inc *incState) (*xag.Network, RoundStats, error) {
	start := time.Now()
	stats := RoundStats{Before: net.CountGates()}
	var (
		cuts   *cut.Set
		depths []int // round-start depth snapshot (depth-ranked models only)
		base   int   // node count when the commit stage began
	)
	finish := func(err error) (*xag.Network, RoundStats, error) {
		out, oldToNew := net.CleanupMap()
		if inc != nil {
			if err == nil {
				e.carryState(inc, net, out, oldToNew, cuts, depths, base)
			} else {
				inc.valid = false // interrupted round: drop the seeds
			}
		}
		stats.After = out.CountGates()
		stats.Duration = time.Since(start)
		// Interrupted rounds count too: their committed rewrites are real.
		e.met.observeRound(stats)
		return out, stats, err
	}

	params := e.cutParams(net)
	if params.Rank != nil && inc != nil {
		// Snapshot the depths the ranks are computed from: next round's
		// reuse must prove each seed leaf still ranks identically.
		depths = make([]int, net.NumNodes())
		for i := range depths {
			depths[i] = -1
		}
		for _, id := range net.LiveNodes() {
			depths[id] = net.AndDepth(id)
		}
	}
	var seed *cut.Seed
	if inc != nil && inc.valid {
		seed = inc.seed(net, params.Rank != nil)
	}

	var enumerated int
	var err error
	stageStart := time.Now()
	pprof.Do(ctx, pprof.Labels("stage", "enumerate"), func(ctx context.Context) {
		cuts, enumerated, err = cut.EnumerateIncremental(ctx, net, params, e.opts.Workers, seed)
	})
	stats.EnumerateTime = time.Since(stageStart)
	if err != nil {
		return finish(err)
	}
	order := net.LiveNodes()
	for _, id := range order {
		if net.IsGate(id) {
			stats.Gates++
		}
	}
	stats.Enumerated = enumerated

	var prep [][]prepared
	stageStart = time.Now()
	pprof.Do(ctx, pprof.Labels("stage", "classify"), func(ctx context.Context) {
		prep, err = e.classifyStage(ctx, net, order, cuts, deg)
	})
	stats.ClassifyTime = time.Since(stageStart)
	if err != nil {
		// Canceled before anything was committed: the network is unchanged.
		return finish(err)
	}
	stats.Classified = stats.Gates

	// Every gate with an id at or above base is one the commits built, which
	// carryState must not carry.
	base = net.NumNodes()
	stageStart = time.Now()
	pprof.Do(ctx, pprof.Labels("stage", "commit"), func(ctx context.Context) {
		err = e.commitStage(ctx, net, order, cuts, prep, &stats, deg)
	})
	stats.CommitTime = time.Since(stageStart)
	return finish(err)
}

// cutParams returns the enumeration parameters of a round over net. Models
// that need depth rank cuts by their leaves' AND depths; for them every
// depth cache is filled up front, so the concurrent AndDepth reads of the
// rank callback inside the level-parallel enumeration workers are pure.
func (e *Engine) cutParams(net *xag.Network) cut.Params {
	params := cut.Params{K: e.opts.CutSize, Limit: e.opts.CutLimit}
	if e.opts.Cost.NeedsDepth() {
		net.EnsureDepths()
		model := e.opts.Cost
		params.Rank = func(leaves []int) int {
			for i, id := range leaves {
				leaves[i] = net.AndDepth(id) // Rank may overwrite its scratch
			}
			return model.CutRank(leaves)
		}
	}
	return params
}

// classifyChunk is how many order slots a classify worker claims per fetch:
// batching the shared-counter traffic keeps workers streaming through their
// own cache-warm run of nodes instead of interleaving per node.
const classifyChunk = 32

// memoPrep is one cut function's classification verdict, as the
// worker-local map caches it and every candidate of the function points at
// it. Exactly one of three shapes holds: skip (incomplete or invalid — the
// cut contributes no candidate), constant (sh.N == 0, one of constVerdicts),
// or a usable entry. A verdict never changes once built.
type memoPrep struct {
	entry      *mcdb.Entry
	tr         spectral.Transform
	newAnds    int
	newXors    int
	constant   bool    // the function is constant: substitute value
	value      xag.Lit // xag.Const0 or xag.Const1 when constant
	incomplete bool    // skipped and counted as IncompleteClassifications
	invalid    bool    // counted as InvalidEntries
}

// skipIncomplete is the verdict of every incomplete classification. It is
// shared: no entry was fetched, so there is nothing per function to keep.
var skipIncomplete = &memoPrep{incomplete: true}

// constVerdicts are the shared verdicts of the constant functions, indexed
// by value.
var constVerdicts = [2]*memoPrep{
	{constant: true, value: xag.Const0},
	{constant: true, value: xag.Const1},
}

// localPrepPool recycles the worker-local classification maps across rounds
// and engines. Maps are returned cleared; pooling preserves their grown
// bucket arrays, so warm rounds skip the per-worker map growth entirely.
var localPrepPool = sync.Pool{
	New: func() interface{} { return make(map[tt.T]*memoPrep, 4*classifyChunk) },
}

// classifyStage runs stage 2: workers pull chunks of node indices from a
// shared counter, classify every cut function of every gate of their chunk
// against the database, and record the replacement candidates in their
// node's slot (indexed by node id) of the result slice. Workers read only
// immutable state (the compact network, the cut set, the concurrent
// database), so no locks are needed beyond the database's own.
func (e *Engine) classifyStage(ctx context.Context, net *xag.Network, order []int, cuts *cut.Set, deg *Degradation) ([][]prepared, error) {
	prep := make([][]prepared, net.NumNodes())
	workers := e.opts.Workers
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		next     atomic.Int64
		degMu    sync.Mutex
		wg       sync.WaitGroup
		canceled atomic.Bool
	)
	work := func() {
		defer wg.Done()
		var local Degradation
		defer func() {
			degMu.Lock()
			deg.add(local)
			degMu.Unlock()
		}()
		// Worker-local classification cache: repeated cut functions within
		// this worker's stream are served without touching the database's
		// striped class cache. Pure traffic amortization — values entering
		// it are the database's deterministic verdicts. Recycled through a
		// pool so steady-state rounds reuse grown hash buckets instead of
		// re-growing a fresh map per worker per round.
		localPrep := localPrepPool.Get().(map[tt.T]*memoPrep)
		defer func() {
			for k := range localPrep {
				delete(localPrep, k)
			}
			localPrepPool.Put(localPrep)
		}()
		for {
			base := int(next.Add(classifyChunk)) - classifyChunk
			if base >= len(order) {
				return
			}
			if ctx.Err() != nil {
				canceled.Store(true)
				return
			}
			for _, id := range order[base:min(base+classifyChunk, len(order))] {
				if net.IsGate(id) {
					prep[id] = e.prepareNode(id, cuts.For(id), localPrep, &local)
				}
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go work()
	}
	wg.Wait()
	if canceled.Load() || ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return prep, nil
}

// prepareNode computes the replacement candidates of one node. The
// worker-local cache short-circuits the database's striped class cache for
// functions this worker already resolved. The candidate slice is the node's
// only allocation once the cache is warm. A panic in cut evaluation,
// classification, or synthesis is recovered and counted — one poisoned node
// cannot take down the worker pool.
func (e *Engine) prepareNode(id int, cuts []cut.Cut, localPrep map[tt.T]*memoPrep, deg *Degradation) (out []prepared) {
	defer func() {
		if r := recover(); r != nil {
			deg.RecoveredPanics++
			e.logf("core: node %d: recovered panic in classification: %v", id, r)
			out = nil
		}
	}()
	if len(cuts) > 0 {
		out = make([]prepared, 0, len(cuts))
	}
	for ci := range cuts {
		c := &cuts[ci]
		if c.Size() < 2 {
			continue // trivial cut
		}
		// Work on the support of the cut function only.
		sh, support := c.Table.Shrink()
		if faultinject.Enabled() {
			// Fault-injection point: tests flip truth-table bits here to
			// prove the end-of-round miter catches an internally-consistent
			// wrong rewrite. Fires inside workers; the registry serializes
			// hooks. The hook gets a copy, so sh stays off the heap.
			fi := sh
			faultinject.Inject(faultinject.PointCutFunction, &fi)
			sh = fi
		}
		if sh.N == 0 {
			v := constVerdicts[0]
			if sh.IsConst1() {
				v = constVerdicts[1]
			}
			out = append(out, prepared{cut: int32(ci), verdict: v})
			continue
		}

		mp := localPrep[sh]
		if mp == nil {
			mp = e.lookup(id, sh)
			localPrep[sh] = mp
		}
		// Replay the verdict. Degradation counters stay per-cut (a cached
		// bad function still counts); only the log line is emitted once per
		// function, worker and round instead of per cut.
		if mp.incomplete {
			deg.IncompleteClassifications++
			continue
		}
		if mp.invalid {
			deg.InvalidEntries++
			continue
		}
		out = append(out, prepared{cut: int32(ci), support: uint8(support), want: sh, verdict: mp})
	}
	return out
}

// lookup resolves one shrunk cut function against the database. It
// classifies first and fetches an entry only for a complete classification,
// as the paper omits the rest. A skipped cut never reads its entry, and
// building one (exact search, then Davio recursion, under the database
// lock) is the expensive half of a cold lookup.
func (e *Engine) lookup(id int, sh tt.T) *memoPrep {
	res := e.db.Classify(sh)
	if !res.Complete {
		return skipIncomplete
	}
	// Model-driven entry selection: the database may hold several circuits
	// per class (an MC-optimal one, a shallower one); the model picks.
	entry := e.db.EntryForModel(res.Repr, e.opts.Cost)
	if err := entry.Validate(); err != nil {
		e.logf("core: node %d: invalid database entry: %v", id, err)
		return &memoPrep{invalid: true}
	}
	return &memoPrep{
		entry:   entry,
		tr:      res.Tr,
		newAnds: entry.MC(),
		newXors: entry.XorCost() + res.Tr.XorCost(),
	}
}

// commitStage runs stage 3: the deterministic sequential pass that turns
// candidates into substitutions. It mirrors the original single-threaded
// algorithm exactly — same node order, same gain formula, same tie-breaks,
// same guards — so the result is bit-identical to a sequential run.
func (e *Engine) commitStage(ctx context.Context, net *xag.Network, order []int, cuts *cut.Set, prep [][]prepared, stats *RoundStats, deg *Degradation) error {
	for step, id := range order {
		if step%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !net.IsGate(id) {
			continue
		}
		if net.Ref(id) == 0 {
			continue // died as part of an earlier replacement
		}
		if e.commitNodeProtected(net, id, cuts.For(id), prep[id], deg) {
			stats.Replacements++
		}
	}
	return nil
}

// commitNodeProtected isolates one node's commit: a panic anywhere in gain
// evaluation or realization is recovered, counted, and treated as "no
// replacement".
func (e *Engine) commitNodeProtected(net *xag.Network, id int, cuts []cut.Cut, prep []prepared, deg *Degradation) (applied bool) {
	defer func() {
		if r := recover(); r != nil {
			deg.RecoveredPanics++
			e.logf("core: node %d: recovered panic: %v", id, r)
			applied = false
		}
	}()
	// Fault-injection point: tests panic or delay here to exercise the
	// recovery and cancellation paths.
	faultinject.Inject(faultinject.PointNode, id)
	return e.commitNode(net, id, cuts, prep, deg)
}

// commitNode re-validates the node's prepared candidates against the
// current network state, picks the most profitable one (steps 1–9 of
// Algorithm 1), and applies it. It reports whether the node was
// substituted.
func (e *Engine) commitNode(net *xag.Network, id int, cuts []cut.Cut, prep []prepared, deg *Degradation) bool {
	best := e.bestReplacement(net, id, cuts, prep)
	if best < 0 {
		return false
	}
	p := &prep[best]
	return e.applyReplacement(net, id, &cuts[p.cut], p, deg)
}

// bestReplacement re-validates the node's prepared candidates against the
// current network state and returns the index of the most profitable one,
// or -1 when no candidate survives re-validation or none pays. The cost
// model's gain decides, with lower tie values breaking gain ties (for the MC
// model, tie is the XOR delta). It only reads the network; realization,
// substitution, logging, and counting are left to applyReplacement.
func (e *Engine) bestReplacement(net *xag.Network, id int, cuts []cut.Cut, prep []prepared) int {
	model := e.opts.Cost
	needsDepth := model.NeedsDepth()
	best, bestGain, bestTie := -1, 0, 0
	for pi := range prep {
		p := &prep[pi]
		c := &cuts[p.cut]
		// Cut leaves must still be current, live nodes: earlier
		// substitutions in this round may have retired or killed them, and
		// realizing a cut on a dead leaf would silently resurrect its whole
		// cone.
		live := true
		for i := 0; i < c.Size(); i++ {
			leaf := c.Leaf(i)
			if net.Resolve(xag.MakeLit(leaf, false)).Node() != leaf {
				live = false
				break
			}
			if net.IsGate(leaf) && net.Ref(leaf) == 0 {
				live = false
				break
			}
		}
		if !live {
			continue
		}

		// Re-validated cost of the cone the replacement would retire, against
		// the evolving network; models that don't need depth never pay for it.
		e.leafBuf = c.AppendLeaves(e.leafBuf[:0])
		oldAnds, oldXors := net.MFFCScratch(id, e.leafBuf, &e.cone)
		old := cost.Costs{Ands: oldAnds, Xors: oldXors}
		if needsDepth {
			old.Depth = net.AndDepth(id)
		}
		var neu cost.Costs // a constant costs nothing
		if v := p.verdict; !v.constant {
			neu = cost.Costs{Ands: v.newAnds, Xors: v.newXors}
			if needsDepth {
				// The depth the realized root would have, from the entry's
				// step structure and the current depths of the
				// (shrunk-support) leaves. An upper bound: strashing may
				// reuse shallower gates.
				var depths [tt.MaxVars]int
				leafDepths := depths[:0]
				for s := p.support; s != 0; s &= s - 1 {
					leafDepths = append(leafDepths, net.AndDepth(c.Leaf(bits.TrailingZeros8(s))))
				}
				neu.Depth = mcdb.RealizedAndDepth(v.entry, v.tr, leafDepths)
			}
		}
		gain, tie := model.Gain(old, neu)
		if best < 0 || gain > bestGain || (gain == bestGain && tie < bestTie) {
			best, bestGain, bestTie = pi, gain, tie
		}
	}
	if bestGain < 0 || (bestGain == 0 && !e.opts.AllowZeroGain) {
		return -1
	}
	return best
}

// applyReplacement realizes and substitutes the chosen candidate p of cut c.
// It reports whether the node was substituted. Realization happens even when
// a later check declines the candidate; the dangling nodes it creates die in
// the end-of-round Cleanup.
func (e *Engine) applyReplacement(net *xag.Network, id int, c *cut.Cut, p *prepared, deg *Degradation) bool {
	v := p.verdict
	if v.constant {
		net.Substitute(id, v.value)
		return true
	}
	// Variable j of the shrunk function is the leaf at the j-th set bit of
	// the support mask.
	e.litBuf = e.litBuf[:0]
	for s := p.support; s != 0; s &= s - 1 {
		e.litBuf = append(e.litBuf, xag.MakeLit(c.Leaf(bits.TrailingZeros8(s)), false))
	}
	lit := mcdb.Realize(net, v.entry, v.tr, e.litBuf)
	if net.InTFIScratch(lit, id, &e.tfi) {
		return false // replacement would feed back into the node's cone
	}
	got, bounded := functionOf(net, lit, e.litBuf)
	if !bounded {
		// A structural-hash hit resolved to a node an earlier commit of
		// this round substituted, and its replacement reaches past the
		// cut's leaves; the cut no longer describes the realized cone.
		return false
	}
	// Always-on per-replacement verification: the realized circuit must
	// compute the cut function over its leaves. A mismatch means the
	// database, classifier, or realization produced a wrong circuit — the
	// substitution is discarded (its dangling nodes die in the end-of-round
	// Cleanup) and counted, so a sick database degrades optimization
	// quality, never correctness.
	if got != p.want {
		deg.RejectedRewrites++
		e.logf("core: node %d: rejected rewrite computing %s, want %s", id, got, p.want)
		return false
	}
	net.Substitute(id, lit)
	return true
}

// Minimize runs rewriting rounds until convergence (or Options.MaxRounds),
// honoring cancellation and the Options.Verify end-of-round miter, and
// returns the optimized network. The input network is not modified. The
// round that ends convergence, the first that does not improve the cost, is
// kept when it ties and rolled back when it made the cost worse.
// Degradation counters accumulate on the engine across calls; the Result
// carries a snapshot.
func (e *Engine) Minimize(ctx context.Context, n *xag.Network) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{DB: e.db}
	e.met.runs.Inc()
	net := n.Cleanup()
	var ref *xag.Network
	if e.opts.Verify {
		ref = n.Cleanup() // immutable snapshot of the input for the miter
	}
	degBefore := e.deg
	// Cross-round seeds, local to this Minimize call: later rounds reuse the
	// cut lists of nodes whose cones the previous round left untouched.
	// Purely a performance feature — see DESIGN.md §10 for the reuse-validity
	// invariant.
	inc := &incState{}
	for round := 0; e.opts.MaxRounds == 0 || round < e.opts.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			res.Interrupted = true
			res.Err = err
			break
		}
		prev := net.Clone() // rollback point: the round consumes net
		var stats RoundStats
		var roundErr error
		net, stats, roundErr = e.round(ctx, net, &e.deg, inc)
		res.Rounds = append(res.Rounds, stats)

		if e.opts.Verify {
			if verr := sim.Equal(ref, net, verifyRounds, 0); verr != nil {
				e.deg.RolledBackRounds++
				e.logf("core: round %d rolled back: %v", len(res.Rounds), verr)
				net = prev
				inc.valid = false // seeds describe the rolled-back network
				res.Err = &VerifyError{Round: len(res.Rounds), Cause: verr}
				break
			}
		}
		if roundErr != nil { // canceled mid-round; partial round already checked
			res.Interrupted = true
			res.Err = roundErr
			break
		}
		if !e.opts.Cost.Improved(stats.Before, stats.After) {
			if e.opts.Cost.Improved(stats.After, stats.Before) {
				net = prev // the round made the cost worse: keep its input
			}
			res.Converged = true
			break
		}
	}
	res.Network = net
	res.Degraded = e.deg.sub(degBefore)
	e.met.observeDegradation(res.Degraded)
	if res.Interrupted {
		e.met.interrupted.Inc()
	}
	if res.Converged {
		e.met.converged.Inc()
	}
	return res
}
