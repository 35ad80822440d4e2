package core

import (
	"context"
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
//     affine-classify it and fetch the representative circuit from the
//     shared database — the expensive, embarrassingly parallel part. No
//     worker touches the network; each writes only its own result slots.
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
	// MFFC buffers, a leaf-id buffer, and TFI-walk stamps, so gain
	// re-validation and the feedback check allocate nothing per candidate.
	cone    xag.ConeScratch
	leafBuf []int
	tfi     xag.TFIScratch
}

// NewEngine returns an engine over db (one is created when nil) with the
// given options. MaxRounds and Verify are ignored here — they belong to the
// Minimize convergence loop; Round always performs exactly one pass.
func NewEngine(db *mcdb.DB, opts Options) *Engine {
	opts = opts.withDefaults()
	if db == nil {
		db = mcdb.New(opts.DBOptions)
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
func (e *Engine) Round(ctx context.Context, net *xag.Network) (*xag.Network, RoundStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Round is a stateless one-pass API: callers may feed unrelated networks
	// in sequence, so no cross-round state is kept (nil incState).
	degBefore := e.deg
	out, stats, err := e.round(ctx, net, &e.deg, nil)
	e.met.observeDegradation(e.deg.sub(degBefore))
	return out, stats, err
}

// prepared is the precomputed, network-independent part of one cut's
// replacement candidate: everything stage 2 can decide from the cut
// function alone. Gain and leaf liveness are deliberately absent — they
// depend on the evolving network and are re-validated at commit time.
type prepared struct {
	cut      int      // index into the node's cut list
	constant *xag.Lit // non-nil when the cut function is constant
	want     tt.T     // shrunk cut function (after fault injection)
	leaves   []xag.Lit
	entry    *mcdb.Entry
	tr       spectral.Transform
	newAnds  int
	newXors  int
}

// round runs one three-stage pass. When inc is non-nil the round consumes
// inc's seeds (cut lists and classifications of nodes untouched by the
// previous round) and refills inc with seeds for the next round; a nil inc
// is a stateless full round. The committed result is bit-identical either
// way: seeds are reused only when provably equal to a fresh recomputation.
func (e *Engine) round(ctx context.Context, net *xag.Network, deg *Degradation, inc *incState) (*xag.Network, RoundStats, error) {
	start := time.Now()
	stats := RoundStats{Before: net.CountGates()}
	var (
		cuts   *cut.Set
		prep   [][]prepared
		depths []int // round-start depth snapshot (depth-ranked models only)
	)
	finish := func(err error) (*xag.Network, RoundStats, error) {
		out, oldToNew := net.CleanupMap()
		if inc != nil {
			if err == nil {
				e.carryState(inc, net, out, oldToNew, cuts, prep, depths)
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

	params := cut.Params{K: e.opts.CutSize, Limit: e.opts.CutLimit}
	if e.opts.Cost.NeedsDepth() {
		// Fill every depth cache up front: afterwards concurrent AndDepth
		// reads are pure, so the rank callback is safe inside the
		// level-parallel enumeration workers.
		net.EnsureDepths()
		model := e.opts.Cost
		params.Rank = func(leaves []int) int {
			ds := make([]int, len(leaves))
			for i, id := range leaves {
				ds[i] = net.AndDepth(id)
			}
			return model.CutRank(ds)
		}
		if inc != nil {
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
	}
	var seed *cut.Seed
	var seedPrep [][]prepared
	if inc != nil && inc.valid {
		leafOK := inc.leafOK
		if params.Rank != nil {
			// Ranked enumeration: a leaf is only safe if its depth — the
			// rank input — matches the snapshot the seed was pruned with.
			leafOK = make([]bool, len(inc.leafOK))
			for id := range leafOK {
				leafOK[id] = inc.leafOK[id] && inc.depth != nil && id < len(inc.depth) &&
					inc.depth[id] == net.AndDepth(id)
			}
		}
		seed = &cut.Seed{Cuts: inc.cuts, LeafOK: leafOK}
		seedPrep = inc.prep
	}

	var enumerated int
	var changed []bool
	var err error
	stageStart := time.Now()
	pprof.Do(ctx, pprof.Labels("stage", "enumerate"), func(ctx context.Context) {
		cuts, changed, enumerated, err = cut.EnumerateIncremental(ctx, net, params, e.opts.Workers, seed)
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

	// A classification seed survives iff the node's cut list provably did
	// not change this round (the prepared entries are pure functions of the
	// list and the immutable per-class database state).
	var seedOK []bool
	if seedPrep != nil {
		seedOK = make([]bool, len(inc.prepOK))
		for id := range seedOK {
			seedOK[id] = inc.prepOK[id] && id < len(changed) && !changed[id]
		}
	}

	var memo *prepMemo
	if inc != nil {
		memo = inc.memo
	}
	var classified int
	stageStart = time.Now()
	pprof.Do(ctx, pprof.Labels("stage", "classify"), func(ctx context.Context) {
		prep, classified, err = e.classifyStage(ctx, net, order, cuts, seedPrep, seedOK, memo, deg)
	})
	stats.ClassifyTime = time.Since(stageStart)
	if err != nil {
		// Canceled before anything was committed: the network is unchanged.
		return finish(err)
	}
	stats.Classified = classified

	// Track which nodes the commits touch, so carryState can tell clean
	// cones (reusable) from dirty ones.
	net.BeginDirtyEpoch()
	stageStart = time.Now()
	pprof.Do(ctx, pprof.Labels("stage", "commit"), func(ctx context.Context) {
		err = e.commitStage(ctx, net, order, cuts, prep, &stats, deg)
	})
	stats.CommitTime = time.Since(stageStart)
	return finish(err)
}

// classifyStage runs stage 2: workers pull chunks of node indices from a
// shared counter, classify every cut function of their nodes against the database,
// and record the replacement candidates in their node's slot (indexed by
// node id) of the result slice. Nodes whose seedOK entry is set adopt the
// previous round's candidates verbatim instead of being reclassified; with a
// non-nil memo (incremental Minimize), repeated cut functions replay their
// memoized classification instead of hitting the database again. The
// returned count is the number of gates that performed at least one real
// database classification this round (seed adoptions and fully memo-served
// nodes are excluded). Workers read only immutable state (the compact
// network, the cut set, the concurrent database), so no locks are needed
// beyond the database's and the memo's own.
// classifyChunk is how many order slots a classify worker claims per fetch:
// batching the shared-counter traffic keeps workers streaming through their
// own cache-warm run of nodes instead of interleaving per node.
const classifyChunk = 32

// prepKey is the worker-local memo key: a shrunk cut function packed into 9
// bytes (truth-table word plus variable count). Distinct from tt.T only in
// layout — the narrower key keeps the per-worker maps compact and their
// hashing cheap on the classify fast path.
type prepKey struct {
	bits uint64
	n    int8
}

// localPrepPool recycles the worker-local classification maps across rounds
// and engines. Maps are returned cleared; pooling preserves their grown
// bucket arrays, so warm rounds skip the per-worker map growth entirely.
var localPrepPool = sync.Pool{
	New: func() interface{} { return make(map[prepKey]*memoPrep, 4*classifyChunk) },
}

func (e *Engine) classifyStage(ctx context.Context, net *xag.Network, order []int, cuts *cut.Set, seedPrep [][]prepared, seedOK []bool, memo *prepMemo, deg *Degradation) ([][]prepared, int, error) {
	prep := make([][]prepared, net.NumNodes())
	workers := e.opts.Workers
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		next       atomic.Int64
		classified atomic.Int64
		degMu      sync.Mutex
		wg         sync.WaitGroup
		canceled   atomic.Bool
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
		// this worker's stream are served without touching the sharded memo
		// or the database's striped class cache. Pure traffic amortization —
		// values entering it are the canonical memo/database verdicts, and
		// the fresh accounting is unchanged (a local hit replays a function
		// this worker already classified, which the shared memo would have
		// answered too). Keyed by the packed (bits, n) pair and recycled
		// through a pool so steady-state rounds reuse grown hash buckets
		// instead of re-growing a fresh map per worker per round.
		localPrep := localPrepPool.Get().(map[prepKey]*memoPrep)
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
				if !net.IsGate(id) {
					continue
				}
				if seedOK != nil && id < len(seedOK) && seedOK[id] {
					prep[id] = seedPrep[id]
					continue
				}
				p, fresh := e.prepareNode(id, cuts.For(id), memo, localPrep, &local)
				prep[id] = p
				if memo == nil || fresh {
					classified.Add(1)
				}
			}
		}
	}
	if workers == 1 {
		// Run inline: single-worker rounds stay goroutine-free, which keeps
		// stack traces and profiles of sequential runs trivial to read.
		wg.Add(1)
		work()
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go work()
		}
		wg.Wait()
	}
	if canceled.Load() || ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	return prep, int(classified.Load()), nil
}

// prepareNode computes the replacement candidates of one node. With a
// non-nil memo, cut functions classified earlier in the same Minimize call
// replay their memoized database verdict instead of repeating the lookup;
// the non-nil worker-local cache short-circuits both the memo's sharded
// locks and the database's striped class cache for functions this worker
// already resolved. fresh reports whether at least one cut actually went to
// the database. A panic in cut evaluation, classification, or synthesis is
// recovered and counted — one poisoned node cannot take down the worker
// pool.
func (e *Engine) prepareNode(id int, cuts []cut.Cut, memo *prepMemo, localPrep map[prepKey]*memoPrep, deg *Degradation) (out []prepared, fresh bool) {
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
	// One backing array for every cut's leaf literals: candidates reference
	// disjoint sub-slices, so the node costs one allocation instead of one
	// per cut.
	var leafArena []xag.Lit
	for ci := range cuts {
		c := &cuts[ci]
		if c.Size() < 2 {
			continue // trivial cut
		}
		// Work on the support of the cut function only.
		sh, from := c.Table.Shrink()
		// Fault-injection point: tests flip truth-table bits here to prove
		// the end-of-round miter catches an internally-consistent wrong
		// rewrite. Fires inside workers; the registry serializes hooks.
		faultinject.Inject(faultinject.PointCutFunction, &sh)
		if sh.N == 0 {
			lit := xag.Const0
			if sh.IsConst1() {
				lit = xag.Const1
			}
			out = append(out, prepared{cut: ci, constant: &lit})
			continue
		}

		lk := prepKey{sh.Bits, int8(sh.N)}
		mp := localPrep[lk]
		if mp == nil && memo != nil {
			mp, _ = memo.get(sh)
		}
		if mp == nil {
			fresh = true
			// Model-driven entry selection: the database may hold several
			// circuits per class (an MC-optimal one, a shallower one); the
			// model picks. For the MC model this is exactly the old Lookup.
			entry, res := e.db.LookupModel(sh, e.opts.Cost)
			mp = &memoPrep{entry: entry, tr: res.Tr, incomplete: !res.Complete}
			switch {
			case mp.incomplete && !e.opts.UseIncomplete:
				// Skipped below; the entry is never consulted, so its
				// validity is irrelevant.
			case entry.Validate() != nil:
				mp.invalid = true
				e.logf("core: node %d: invalid database entry: %v", id, entry.Validate())
			default:
				mp.newAnds = entry.MC()
				mp.newXors = entry.XorCost() + res.Tr.XorCost()
			}
			if memo != nil {
				mp = memo.put(sh, mp)
			}
		}
		localPrep[lk] = mp
		// Replay the verdict. Degradation counters stay per-cut (a memo hit
		// on a bad function still counts), matching the memo-free path; only
		// the log line is emitted once per function instead of per node.
		if mp.incomplete && !e.opts.UseIncomplete {
			deg.IncompleteClassifications++
			continue
		}
		if mp.invalid {
			deg.InvalidEntries++
			continue
		}
		if leafArena == nil {
			leafArena = make([]xag.Lit, 0, tt.MaxVars*len(cuts))
		}
		base := len(leafArena)
		for _, origVar := range from {
			leafArena = append(leafArena, xag.MakeLit(c.Leaf(origVar), false))
		}
		leaves := leafArena[base:len(leafArena):len(leafArena)]
		out = append(out, prepared{
			cut:     ci,
			want:    sh,
			leaves:  leaves,
			entry:   mp.entry,
			tr:      mp.tr,
			newAnds: mp.newAnds,
			newXors: mp.newXors,
		})
	}
	return out, fresh
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
		if e.opts.MaxRewritesPerRound > 0 && stats.Replacements >= e.opts.MaxRewritesPerRound {
			break
		}
		if !net.IsGate(id) {
			continue
		}
		if net.Resolve(xag.MakeLit(id, false)).Node() != id {
			continue // already replaced in this round
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
	return e.applyReplacement(net, id, best, deg)
}

// bestReplacement re-validates the node's prepared candidates against the
// current network state and picks the most profitable one, or nil when no
// candidate survives re-validation. It only reads the network; substitution,
// logging, and counting are left to applyReplacement.
func (e *Engine) bestReplacement(net *xag.Network, id int, cuts []cut.Cut, prep []prepared) *replacement {
	model := e.opts.Cost
	needsDepth := model.NeedsDepth()
	var best *replacement
	consider := func(r *replacement) {
		if best == nil || r.gain > best.gain ||
			(r.gain == best.gain && r.tie < best.tie) {
			best = r
		}
	}
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
		if p.constant != nil {
			gain, tie := model.Gain(old, cost.Costs{})
			consider(&replacement{gain: gain, tie: tie, constant: p.constant})
			continue
		}
		neu := cost.Costs{Ands: p.newAnds, Xors: p.newXors}
		if needsDepth {
			// The depth the realized root would have, from the entry's step
			// structure and the current depths of the (shrunk-support) leaf
			// literals. An upper bound: strashing may reuse shallower gates.
			leafDepths := make([]int, len(p.leaves))
			for i, l := range p.leaves {
				leafDepths[i] = net.AndDepth(l.Node())
			}
			neu.Depth = mcdb.RealizedAndDepth(p.entry, p.tr, leafDepths)
		}
		gain, tie := model.Gain(old, neu)
		entry, tr, leaves := p.entry, p.tr, p.leaves
		consider(&replacement{
			gain:    gain,
			tie:     tie,
			realize: func() xag.Lit { return mcdb.Realize(net, entry, tr, leaves) },
			want:    p.want,
			leaves:  leaves,
		})
	}
	if best == nil {
		return nil
	}
	if best.gain < 0 || (best.gain == 0 && !e.opts.AllowZeroGain) {
		return nil
	}
	return best
}

// applyReplacement realizes and substitutes the chosen candidate (nil means
// "no profitable candidate" and is a no-op). It reports whether the node
// was substituted. Realization happens even when a later check declines
// the candidate; the dangling nodes it creates die in the end-of-round
// Cleanup.
func (e *Engine) applyReplacement(net *xag.Network, id int, best *replacement, deg *Degradation) bool {
	if best == nil {
		return false
	}
	if best.constant != nil {
		net.Substitute(id, *best.constant)
		return true
	}
	lit := best.realize()
	if net.InTFIScratch(lit, id, &e.tfi) {
		return false // replacement would feed back into the node's cone
	}
	got, bounded := functionOf(net, lit, best.leaves)
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
	if got != best.want {
		deg.RejectedRewrites++
		e.logf("core: node %d: rejected rewrite computing %s, want %s", id, got, best.want)
		return false
	}
	net.Substitute(id, lit)
	return true
}

// Minimize runs rewriting rounds until convergence (or Options.MaxRounds),
// honoring cancellation and the Options.Verify end-of-round miter, and
// returns the optimized network. The input network is not modified.
// Degradation counters accumulate on the engine across calls; the Result
// carries a snapshot.
func (e *Engine) Minimize(ctx context.Context, n *xag.Network) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	e.db.SetContext(ctx)
	defer e.db.SetContext(nil)

	res := Result{DB: e.db}
	e.met.runs.Inc()
	net := n.Cleanup()
	var ref *xag.Network
	if e.opts.Verify {
		ref = n.Cleanup() // immutable snapshot of the input for the miter
	}
	degBefore := e.deg
	// Cross-round incremental state, local to this Minimize call: later
	// rounds reuse the cut lists and classifications of nodes whose cones
	// the previous round left untouched. Purely a performance feature — see
	// DESIGN.md §10 for the reuse-validity invariant.
	var inc *incState
	if !e.opts.NoIncremental {
		inc = &incState{memo: newPrepMemo()}
	}
	for round := 0; e.opts.MaxRounds == 0 || round < e.opts.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			res.Interrupted = true
			res.Err = err
			break
		}
		var prev *xag.Network
		if e.opts.Verify {
			prev = net.Cleanup() // rollback point: the round consumes net
		}
		var stats RoundStats
		var roundErr error
		net, stats, roundErr = e.round(ctx, net, &e.deg, inc)
		res.Rounds = append(res.Rounds, stats)

		if e.opts.Verify {
			if verr := sim.Equal(ref, net, e.opts.VerifyRounds, e.opts.VerifySeed); verr != nil {
				e.deg.RolledBackRounds++
				e.logf("core: round %d rolled back: %v", len(res.Rounds), verr)
				net = prev
				if inc != nil {
					inc.valid = false // seeds describe the rolled-back network
				}
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
