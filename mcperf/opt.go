package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/tt"
	"repro/internal/xag"
)

// engineWorkers is the engine worker count of every optimization the
// benchmark runs: at most two, the size of the host it was tuned on.
const engineWorkers = 2

// verifyRounds is the number of 64-pattern rounds of the correctness
// check for circuits too wide for exhaustive simulation.
const verifyRounds = 16

// legSpec names one optimization of a built-in benchmark under a model.
type legSpec struct{ bench, model string }

// coldSmallLegs each run to convergence from an empty database, as mcopt
// does without -db: spectral classification and exact synthesis dominate.
var coldSmallLegs = []legSpec{
	{"adder-64", "mc"}, {"sha-256-round", "mc"}, {"multiplier", "mc"}, {"voter", "mc"},
	{"adder-64", "depth"}, {"sha-256-round", "depth"},
}

// warmLargeLegs run against one database that set-up warmed with a full
// pass over the same circuits: classification is served from the caches,
// so enumeration and commit dominate.
var warmLargeLegs = []legSpec{{"md5", "mc"}, {"speck-64-96", "mc"}}

// leg is one ready-to-run optimization.
type leg struct {
	name  string // "<bench>/<model>"
	model cost.Model
	net   *xag.Network
	// rounds, set for traced runs, holds the network each round of the
	// optimization starts from (see roundNetworks).
	rounds []*xag.Network
}

func buildLegs(specs []legSpec) ([]leg, error) {
	out := make([]leg, 0, len(specs))
	for _, s := range specs {
		b, ok := bench.ByName(s.bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", s.bench)
		}
		m, err := cost.FromName(s.model)
		if err != nil {
			return nil, err
		}
		out = append(out, leg{name: s.bench + "/" + s.model, model: m, net: b.Build()})
	}
	return out, nil
}

// warmLazyTables builds the exact n ≤ 4 classification tables, which the
// spectral package otherwise builds on first use inside the first pass.
func warmLazyTables() {
	for n := 1; n <= 4; n++ {
		spectral.Classify(tt.Var(0, n), 0)
	}
}

// legOutcome is what one leg of one pass produced.
type legOutcome struct {
	name     string
	wall     time.Duration // the MinimizeMCContext call (and, traced, its prepass)
	res      core.Result
	andAfter int
	rounds   int
	repl     int
	hash     xag.Hash // canonical hash of the output as re-read from Bristol
	err      error    // correctness failure
	dbDelta  mcdb.Stats
	pc       prepassCounts
}

// optRunner runs passes over a list of legs. A cold runner gives every leg
// a fresh database; a warm one shares db across legs and passes.
type optRunner struct {
	legs []leg
	cold bool
	db   *mcdb.DB
	reg  *metrics.Registry // carries the mcc_classify_steps histogram
	seed int64
}

func (r *optRunner) dbFor() *mcdb.DB {
	if !r.cold {
		return r.db
	}
	return newDB(r.reg)
}

// newDB returns an empty database whose spectral-search histogram lands on
// reg.
func newDB(reg *metrics.Registry) *mcdb.DB {
	db := mcdb.New(mcdb.Options{})
	db.RegisterMetrics(reg)
	return db
}

// pass runs every leg once. Only the MinimizeMCContext calls are inside
// the returned wall time; output handling and the correctness check run
// between them. With a recorder, the pass is traced under a root span
// named pass, whose id it returns.
func (r *optRunner) pass(ctx context.Context, idx int, rec *Recorder) (time.Duration, []legOutcome, int) {
	runtime.GC() // start every pass from a collected heap
	root := rec.Open(0, "pass", fmt.Sprintf("pass-%d", idx))
	var total time.Duration
	outs := make([]legOutcome, len(r.legs))
	for i, l := range r.legs {
		o := runLeg(ctx, l, core.Options{Workers: engineWorkers, Cost: l.model, DB: r.dbFor()}, r.seed, rec, root)
		total += o.wall
		outs[i] = o
	}
	rec.Close(root)
	return total, outs, root
}

// runLeg optimizes one leg under opts (which carry its model and
// database), then renders, re-reads, hashes and verifies its output.
// Traced, the leg first classifies and synthesizes its cut functions from
// outside the engine (prepass), so that the spectral and synthesis layers
// are timed through their public calls, and then runs the engine, whose
// stages come from the RoundStats it returns.
func runLeg(ctx context.Context, l leg, opts core.Options, seed int64, rec *Recorder, parent int) legOutcome {
	o := legOutcome{name: l.name}
	dbBefore := opts.DB.Stats()
	legSpan := rec.Open(parent, "leg", l.name)
	start := time.Now()
	if rec != nil {
		o.pc = prepass(ctx, l, opts.DB, rec, legSpan)
	}
	minStart := time.Now()
	o.res = core.MinimizeMCContext(ctx, l.net, opts)
	minEnd := time.Now()
	o.wall = minEnd.Sub(minStart)
	if rec != nil {
		o.wall = minEnd.Sub(start) // the traced leg includes its prepass
		recordRounds(rec, legSpan, l.name, minStart, minEnd, o.res.Rounds)
	}
	o.dbDelta = subStats(opts.DB.Stats(), dbBefore)
	if l.rounds != nil && len(l.rounds) != len(o.res.Rounds) {
		o.err = fmt.Errorf("%s: Engine.Round took %d rounds, Minimize %d", l.name, len(l.rounds), len(o.res.Rounds))
	}
	o.andAfter = o.res.Network.NumAnds()
	o.rounds = len(o.res.Rounds)
	for _, rd := range o.res.Rounds {
		o.repl += rd.Replacements
	}
	switch {
	case o.err != nil:
	case o.res.Err != nil:
		o.err = fmt.Errorf("%s: %w", l.name, o.res.Err)
	case !o.res.Converged:
		o.err = fmt.Errorf("%s: did not converge", l.name)
	default:
		o.hash, o.err = checkOutput(l.net, o.res.Network, uint64(seed), rec, legSpan, l.name)
	}
	rec.Close(legSpan)
	return o
}

// checkOutput renders out as Bristol, reads it back, hashes the re-read
// network and checks it against in with simEqual.
func checkOutput(in, out *xag.Network, seed uint64, rec *Recorder, parent int, unit string) (xag.Hash, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := out.WriteBristol(&buf)
	t1 := time.Now()
	rec.Add(parent, "xag.render", unit, t0, t1)
	if err != nil {
		return xag.Hash{}, fmt.Errorf("%s: render: %w", unit, err)
	}
	back, err := xag.ReadBristol(&buf)
	t2 := time.Now()
	rec.Add(parent, "xag.parse", unit, t1, t2)
	if err != nil {
		return xag.Hash{}, fmt.Errorf("%s: re-read: %w", unit, err)
	}
	h := back.CanonicalHash()
	t3 := time.Now()
	rec.Add(parent, "xag.hash", unit, t2, t3)
	err = simEqual(in, back, seed)
	rec.Add(parent, "sim.verify", unit, t3, time.Now())
	if err != nil {
		return h, fmt.Errorf("%s: output not equivalent to input: %w", unit, err)
	}
	return h, nil
}

// simEqual is the correctness check of every output: sim.Equal, which is
// exhaustive up to 16 primary inputs and random simulation beyond.
func simEqual(in, out *xag.Network, seed uint64) error {
	return sim.Equal(in, out, verifyRounds, seed)
}

// prepassCounts tallies the classifications the traced prepass made, by
// number of inputs.
type prepassCounts struct {
	total, incomplete [tt.MaxVars + 1]int
}

func (p *prepassCounts) add(o prepassCounts) {
	for n := range p.total {
		p.total[n] += o.total[n]
		p.incomplete[n] += o.incomplete[n]
	}
}

// prepass enumerates the cuts of the networks the leg's rounds start
// from (l.rounds; just the input when unset) with the engine's parameters
// and runs each distinct shrunk cut function through DB.Classify and each
// distinct class representative through DB.EntryFor, the two calls the
// engine's classify stage makes for a function it has not seen. Their
// spans sit under a core.classify span, the stage they were lifted out
// of; the enumeration exists only for the trace and is recorded as
// trace.enumerate. Synthesis classifies the subfunctions it decomposes
// into itself, so that share of spectral work counts as mcdb.synth.
func prepass(ctx context.Context, l leg, db *mcdb.DB, rec *Recorder, parent int) (pc prepassCounts) {
	cls := rec.Open(parent, "core.classify", l.name)
	defer rec.Close(cls)

	nets := l.rounds
	if nets == nil {
		nets = []*xag.Network{l.net.Cleanup()}
	}
	seen := make(map[[2]uint64]bool)
	var funcs []tt.T
	for _, net := range nets {
		t0 := time.Now()
		cuts, err := enumerate(ctx, net, l.model)
		rec.Add(cls, "trace.enumerate", l.name, t0, time.Now())
		if err != nil {
			return pc
		}
		for _, id := range net.LiveNodes() {
			if !net.IsGate(id) {
				continue
			}
			for _, c := range cuts.For(id) {
				if c.Size() < 2 {
					continue
				}
				sh, _ := c.Table.Shrink()
				k := [2]uint64{uint64(sh.N), sh.Bits}
				if sh.N == 0 || seen[k] {
					continue
				}
				seen[k] = true
				funcs = append(funcs, sh)
			}
		}
	}

	t1 := time.Now()
	results := make([]spectral.Result, len(funcs))
	var wg sync.WaitGroup
	for w := 0; w < engineWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(funcs); i += engineWorkers {
				results[i] = db.Classify(funcs[i])
			}
		}(w)
	}
	wg.Wait()
	t2 := time.Now()
	rec.Add(cls, "spectral.classify", l.name, t1, t2)

	// Like the engine's lookup, synthesis runs for incomplete
	// classifications too, on the representative the search reached.
	reprs := make(map[[2]uint64]bool)
	for i, res := range results {
		n := funcs[i].N
		pc.total[n]++
		if !res.Complete {
			pc.incomplete[n]++
		}
		k := [2]uint64{uint64(res.Repr.N), res.Repr.Bits}
		if !reprs[k] {
			reprs[k] = true
			db.EntryFor(res.Repr)
		}
	}
	rec.Add(cls, "mcdb.synth", l.name, t2, time.Now())
	return pc
}

// enumerate computes the cut sets of net with the engine's default
// parameters and, for models that rank cuts by depth, its ranking.
func enumerate(ctx context.Context, net *xag.Network, model cost.Model) (*cut.Set, error) {
	params := cut.Params{K: 6, Limit: 12}
	if model.NeedsDepth() {
		net.EnsureDepths()
		params.Rank = func(leaves []int) int {
			ds := make([]int, len(leaves))
			for i, id := range leaves {
				ds[i] = net.AndDepth(id)
			}
			return model.CutRank(ds)
		}
	}
	return cut.EnumerateParallel(ctx, net, params, engineWorkers)
}

// roundNetworks returns the networks the rounds of an optimization of l
// start from, computed with one Engine.Round call per round against db
// until a round no longer improves the cost, as Minimize stops.
func roundNetworks(ctx context.Context, l leg, db *mcdb.DB) ([]*xag.Network, error) {
	eng := core.NewEngine(db, core.Options{Workers: engineWorkers, Cost: l.model, DB: db})
	cur := l.net.Cleanup()
	nets := []*xag.Network{cur.Clone()}
	for {
		out, st, err := eng.Round(ctx, cur)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
		if !l.model.Improved(st.Before, st.After) {
			return nets, nil
		}
		nets = append(nets, out.Clone())
		cur = out
	}
}

// recordRounds lays the engine's rounds out as spans under a core.minimize
// span covering [start, end]: the rounds run back to back from start, each
// split into its enumerate, classify and commit stages; a round's
// remainder (cleanup, seed carry) is the round span's self time.
func recordRounds(rec *Recorder, parent int, unit string, start, end time.Time, rounds []core.RoundStats) {
	minSpan := rec.Add(parent, "core.minimize", unit, start, end)
	at := start
	for i, rd := range rounds {
		u := fmt.Sprintf("%s#%d", unit, i+1)
		rs := rec.Add(minSpan, "round", u, at, at.Add(rd.Duration))
		s := at
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"cut.enumerate", rd.EnumerateTime}, {"core.classify", rd.ClassifyTime}, {"core.commit", rd.CommitTime}} {
			rec.Add(rs, st.name, u, s, s.Add(st.d))
			s = s.Add(st.d)
		}
		at = at.Add(rd.Duration)
	}
}

// subStats and addStats combine the mcdb counters the per-layer metrics
// read.
func subStats(a, b mcdb.Stats) mcdb.Stats {
	return mcdb.Stats{
		Classified:     a.Classified - b.Classified,
		ClassCacheHits: a.ClassCacheHits - b.ClassCacheHits,
		EntryCacheHits: a.EntryCacheHits - b.EntryCacheHits,
		ExactSyntheses: a.ExactSyntheses - b.ExactSyntheses,
		BoundedExact:   a.BoundedExact - b.BoundedExact,
		DavioFallbacks: a.DavioFallbacks - b.DavioFallbacks,
	}
}

func addStats(a, b mcdb.Stats) mcdb.Stats {
	return mcdb.Stats{
		Classified:     a.Classified + b.Classified,
		ClassCacheHits: a.ClassCacheHits + b.ClassCacheHits,
		EntryCacheHits: a.EntryCacheHits + b.EntryCacheHits,
		ExactSyntheses: a.ExactSyntheses + b.ExactSyntheses,
		BoundedExact:   a.BoundedExact + b.BoundedExact,
		DavioFallbacks: a.DavioFallbacks + b.DavioFallbacks,
	}
}

// stepTotals reads the mcc_classify_steps histogram: how many spectral
// searches ran and how many steps they took.
type stepTotals struct {
	count int64
	sum   float64
}

func stepsOf(reg *metrics.Registry) stepTotals {
	h := reg.Histogram("mcc_classify_steps", "", nil)
	return stepTotals{h.Count(), h.Sum()}
}
