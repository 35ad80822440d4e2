// Package core implements the paper's contribution: cut rewriting of
// XOR-AND graphs to minimize the number of AND gates (the multiplicative
// complexity of the network).
//
// For every gate, k-feasible cuts (k ≤ 6) are enumerated; each cut function
// is classified up to affine equivalence, the multiplicative-complexity-
// optimal circuit of its class representative is fetched from the database,
// and the cut is replaced when doing so reduces the AND count of the
// network. The gain is evaluated DAG-aware against the maximum fanout-free
// cone of the root, as in DAG-aware AIG rewriting. Rounds repeat until no
// further improvement ("repeat until convergence" in the paper's tables).
//
// The same engine doubles as the generic size baseline (cost.Size()): with a
// unit cost for AND and XOR gates it mimics a classical size optimizer,
// which is exactly the comparison point of the paper's experiments.
//
// # Verification and resilience
//
// In the paper's MPC/FHE setting a single wrong rewrite silently breaks a
// cryptographic circuit, so the engine is defensive in depth:
//
//   - every accepted replacement is re-simulated over its cut leaves and
//     rejected (with a counter) if it does not compute the cut function;
//   - Options.Verify adds an end-of-round random-simulation miter against a
//     snapshot of the input network; a failing round is rolled back and
//     reported as a structured *VerifyError;
//   - a panic while processing one node is recovered, logged, and counted —
//     the node is skipped and the run continues;
//   - MinimizeMCContext honors context cancellation between rounds, inside
//     cut enumeration, per classify chunk and every 64 commits, returning a
//     valid partially-optimized network promptly. A database synthesis in
//     flight is not interrupted: SearchBudget bounds it, and the circuit it
//     stores is the same whichever run asked for it.
//
// Degradation events are counted in Result.Degraded so callers can alert on
// a sick database or classifier instead of silently losing optimization
// quality.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/metrics"
	"repro/internal/tt"
	"repro/internal/xag"
)

// Cost selects the gain metric of the rewriting engine. It is an alias of
// cost.Model: the engine consults the model at every decision point —
// ranking cuts, selecting database entries, scoring replacement gains, and
// testing round-over-round improvement.
type Cost = cost.Model

// Options configures the optimizer.
type Options struct {
	CutSize  int // maximum cut size K (2..6, default 6)
	CutLimit int // priority cuts per node (default 12, as in the paper)

	Cost          Cost // gain model (nil = cost.MC(), the paper's objective)
	AllowZeroGain bool // also apply replacements with zero gain

	// Verify runs an end-of-round equivalence miter (exhaustive for narrow
	// interfaces, verifyRounds × 64 random patterns from a fixed seed
	// otherwise) against a snapshot of the input network. A failing round is
	// rolled back and the run stops with Result.Err set to a *VerifyError.
	Verify bool

	MaxRounds int // bound for MinimizeMC (0 = run until convergence)

	// Workers bounds the worker pool of the parallel cut-enumeration and
	// classification stages of each round (0 = GOMAXPROCS, 1 = fully
	// sequential). The committed network is bit-identical for every value:
	// the commit stage is one sequential pass in node-id order, so
	// parallelism only reorders cache warming, never commits.
	Workers int

	// Logf, when set, receives one line per degradation event (rejected
	// rewrite, invalid database entry, recovered panic, rolled-back round).
	Logf func(format string, args ...any)

	// Metrics, when set, receives the engine's live counters (rounds,
	// rewrites, AND gates removed, every degradation class) and the
	// database's activity counters under the mcc_* and mcdb_* names; see
	// DESIGN.md §11 for the inventory. Instruments are registered
	// get-or-create, so any number of engines may share one registry.
	Metrics *metrics.Registry

	DB *mcdb.DB // database to use; a default one is created when nil
}

func (o Options) withDefaults() Options {
	if o.Cost == nil {
		o.Cost = cost.MC()
	}
	if o.CutSize == 0 {
		o.CutSize = 6
	}
	if o.CutLimit == 0 {
		o.CutLimit = 12
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// RoundStats reports one rewriting round.
type RoundStats struct {
	Replacements int
	Before       xag.Counts
	After        xag.Counts
	Duration     time.Duration

	// Gates is the number of live gates at the start of the round;
	// Enumerated counts how many of them had their cuts re-merged this
	// round (the rest adopted the previous round's cut lists). Engine.Round
	// keeps no seeds, so its rounds have Enumerated == Gates. Every round
	// classifies every gate: Classified always equals Gates.
	Gates      int
	Enumerated int
	Classified int

	// Per-stage wall-clock of the round's pipeline (enumerate → classify →
	// commit); Duration additionally covers cleanup and seed carry-over.
	EnumerateTime time.Duration
	ClassifyTime  time.Duration
	CommitTime    time.Duration
}

// Degradation counts the defensive events of a run: each counter is one
// class of fault that was contained instead of corrupting the result.
type Degradation struct {
	// RejectedRewrites counts replacements discarded because the realized
	// circuit did not compute the cut function (a database or classifier
	// fault caught by the per-replacement truth-table check).
	RejectedRewrites int
	// InvalidEntries counts database entries that failed structural
	// validation; their cuts were skipped.
	InvalidEntries int
	// IncompleteClassifications counts cuts skipped because the spectral
	// classification hit its iteration limit, as the paper omits them.
	IncompleteClassifications int
	// RecoveredPanics counts per-node panics that were recovered; the node
	// was skipped and the round continued.
	RecoveredPanics int
	// RolledBackRounds counts rounds undone by the end-of-round miter.
	RolledBackRounds int
}

// Total returns the sum of all degradation counters.
func (d Degradation) Total() int {
	return d.RejectedRewrites + d.InvalidEntries + d.IncompleteClassifications +
		d.RecoveredPanics + d.RolledBackRounds
}

func (d *Degradation) add(o Degradation) {
	d.RejectedRewrites += o.RejectedRewrites
	d.InvalidEntries += o.InvalidEntries
	d.IncompleteClassifications += o.IncompleteClassifications
	d.RecoveredPanics += o.RecoveredPanics
	d.RolledBackRounds += o.RolledBackRounds
}

func (d Degradation) sub(o Degradation) Degradation {
	return Degradation{
		RejectedRewrites:          d.RejectedRewrites - o.RejectedRewrites,
		InvalidEntries:            d.InvalidEntries - o.InvalidEntries,
		IncompleteClassifications: d.IncompleteClassifications - o.IncompleteClassifications,
		RecoveredPanics:           d.RecoveredPanics - o.RecoveredPanics,
		RolledBackRounds:          d.RolledBackRounds - o.RolledBackRounds,
	}
}

// VerifyError reports that the end-of-round miter found the optimized
// network inequivalent to the input snapshot. The offending round has been
// rolled back: Result.Network is the last state that passed verification.
type VerifyError struct {
	Round int   // 1-based index of the rolled-back round
	Cause error // typically a *sim.Counterexample
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("core: round %d failed verification and was rolled back: %v", e.Round, e.Cause)
}

func (e *VerifyError) Unwrap() error { return e.Cause }

// Result is the outcome of MinimizeMC.
type Result struct {
	Network   *xag.Network
	Rounds    []RoundStats
	Converged bool
	DB        *mcdb.DB

	// Interrupted is true when the run stopped early because its context
	// was canceled; Network is still a valid (partially optimized) circuit.
	Interrupted bool
	// Err is non-nil when the run ended abnormally: a *VerifyError after a
	// rolled-back round, or the context's error after cancellation.
	Err error
	// Degraded counts faults contained during the run.
	Degraded Degradation
}

// Initial returns the gate counts before the first round.
func (r Result) Initial() xag.Counts {
	if len(r.Rounds) == 0 {
		return xag.Counts{}
	}
	return r.Rounds[0].Before
}

// Final returns the gate counts of the returned network: the last round's
// output, or that round's input when Minimize rolled the round back.
func (r Result) Final() xag.Counts {
	if len(r.Rounds) == 0 {
		return xag.Counts{}
	}
	return r.Network.CountGates()
}

// MinimizeMC runs rewriting rounds until convergence (or MaxRounds) and
// returns the optimized network. The input network is not modified.
func MinimizeMC(n *xag.Network, opts Options) Result {
	return MinimizeMCContext(context.Background(), n, opts)
}

// MinimizeMCContext is MinimizeMC with cancellation: deadlines and cancel
// signals are honored between rounds, inside cut enumeration, per chunk of
// classified nodes and every 64 commits. A database synthesis already under
// way finishes (within the database's SearchBudget), so a canceled run never
// leaves a different circuit in a shared database than an uncanceled one
// would. A canceled run returns promptly with Interrupted set and a valid
// network reflecting the rewrites applied so far (each individually
// equivalence-checked, and miter-checked when Verify is on).
func MinimizeMCContext(ctx context.Context, n *xag.Network, opts Options) Result {
	return NewEngine(opts.DB, opts).Minimize(ctx, n)
}

// ctxCheckStride bounds how many nodes are processed between cancellation
// checks inside a round.
const ctxCheckStride = 64

// verifyRounds is the number of 64-pattern rounds of the end-of-round miter
// when the interface is too wide for an exhaustive check.
const verifyRounds = 8

// functionOf evaluates the function of lit as a truth table over the given
// leaf literals. The second result is false, and the table meaningless, when
// the cone of lit reaches a primary input that is not a leaf.
func functionOf(net *xag.Network, lit xag.Lit, leaves []xag.Lit) (tt.T, bool) {
	n := len(leaves)
	memo := map[int]tt.T{0: tt.Const0(n)}
	for i, l := range leaves {
		memo[l.Node()] = tt.Var(i, n).Xor(constIf(l.Compl(), n))
	}
	bounded := true
	var eval func(id int) tt.T
	eval = func(id int) tt.T {
		if t, ok := memo[id]; ok {
			return t
		}
		if !bounded || !net.IsGate(id) {
			bounded = false
			return tt.Const0(n)
		}
		f0, f1 := net.Fanins(id)
		a := eval(f0.Node()).Xor(constIf(f0.Compl(), n))
		b := eval(f1.Node()).Xor(constIf(f1.Compl(), n))
		var t tt.T
		if net.Kind(id) == xag.KindAnd {
			t = a.And(b)
		} else {
			t = a.Xor(b)
		}
		memo[id] = t
		return t
	}
	out := eval(net.Resolve(lit).Node())
	return out.Xor(constIf(net.Resolve(lit).Compl(), n)), bounded
}

func constIf(c bool, n int) tt.T {
	if c {
		return tt.Const1(n)
	}
	return tt.Const0(n)
}
