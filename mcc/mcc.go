// Package mcc is the public entry point of this repository: multiplicative-
// complexity optimization of XOR-AND graphs by cut rewriting, as in
// "Reducing the Multiplicative Complexity in Logic Networks for Cryptography
// and Security Applications" (DAC 2019).
//
// The package is a thin facade over the internal engine with a stable,
// option-based surface:
//
//	net, _ := mcc.ReadBristol(f)
//	res := mcc.Optimize(ctx, net,
//		mcc.WithWorkers(8),
//		mcc.WithVerify(true),
//	)
//	fmt.Println(res.Final().And, "AND gates")
//
// Networks are built with NewNetwork (see the Network methods: AddPI, And,
// Xor, Not, AddPO, ...) or parsed from Bristol format with ReadBristol.
// Optimize never modifies its input; the optimized circuit is
// Result.Network. For repeated calls that should share one synthesis
// database, pass Result.DB of an earlier run back in via WithDB.
package mcc

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/metrics"
	"repro/internal/xag"
)

// Core graph types, re-exported so callers never import internal packages.
type (
	// Network is an XOR-AND graph.
	Network = xag.Network
	// Lit is a (possibly complemented) node literal.
	Lit = xag.Lit
	// Counts reports gate counts of a network; Counts.And is the
	// multiplicative complexity.
	Counts = xag.Counts
)

// Optimization result types, re-exported from the engine.
type (
	// Result is the outcome of Optimize; see Result.Network, Result.Rounds,
	// Result.Degraded, Result.Err.
	Result = core.Result
	// RoundStats reports one rewriting round.
	RoundStats = core.RoundStats
	// Degradation counts faults contained during a run.
	Degradation = core.Degradation
	// VerifyError reports a rolled-back round; Result.Err wraps one when
	// verification fails.
	VerifyError = core.VerifyError
	// DB is the classification and synthesis database shared across runs.
	DB = mcdb.DB
	// MetricsRegistry is a process-wide metrics registry (counters, gauges,
	// histograms) rendered in Prometheus text format; see NewMetricsRegistry
	// and WithMetrics.
	MetricsRegistry = metrics.Registry
)

// Cost is a pluggable cost model: the objective Optimize minimizes. Obtain
// one from MC, Size, or Depth (or implement cost.Model for a custom
// objective) and pass it via WithCost.
type Cost = core.Cost

// MC returns the multiplicative-complexity model: minimize AND gates (the
// paper's objective, and the default).
func MC() Cost { return cost.MC() }

// Size returns the size model: AND and XOR gates count alike, the classical
// baseline the paper compares against.
func Size() Cost { return cost.Size() }

// Depth returns the multiplicative-depth model: minimize the longest chain
// of AND gates from inputs to outputs, with AND count as tiebreak — the
// objective that dominates FHE noise growth and T-depth.
func Depth() Cost { return cost.Depth() }

// NewNetwork returns an empty XOR-AND graph.
func NewNetwork() *Network { return xag.New() }

// NewDB returns an empty classification and synthesis database, for sharing
// across Optimize calls via WithDB before any run has produced a Result.DB.
func NewDB() *DB { return mcdb.New(mcdb.Options{}) }

// ReadBristol parses a network in Bristol format.
func ReadBristol(r io.Reader) (*Network, error) { return xag.ReadBristol(r) }

// An Option configures Optimize.
type Option func(*core.Options)

// WithWorkers bounds the worker pool of the parallel enumeration and
// classification stages (0 = GOMAXPROCS, 1 = sequential). The result is
// bit-identical for every value; workers only change how fast the shared
// caches warm up.
func WithWorkers(n int) Option {
	return func(o *core.Options) { o.Workers = n }
}

// WithSequentialCommit is ignored: the commit stage is always one
// sequential pass.
//
// Deprecated: the parallel commit it switched off has been removed; drop
// the option.
func WithSequentialCommit(on bool) Option {
	return func(*core.Options) {}
}

// WithVerify toggles the end-of-round equivalence miter against a snapshot
// of the input. A failing round is rolled back and reported through
// Result.Err as a *VerifyError. Per-replacement truth-table checking is
// always on regardless.
func WithVerify(on bool) Option {
	return func(o *core.Options) { o.Verify = on }
}

// WithMaxRounds bounds the number of rewriting rounds (0 = run until
// convergence).
func WithMaxRounds(n int) Option {
	return func(o *core.Options) { o.MaxRounds = n }
}

// WithCost selects the gain metric (CostMC by default).
func WithCost(c Cost) Option {
	return func(o *core.Options) { o.Cost = c }
}

// WithLogger directs one line per degradation event (rejected rewrite,
// invalid database entry, recovered panic, rolled-back round) to logf.
// Safe with WithWorkers: calls are serialized.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(o *core.Options) { o.Logf = logf }
}

// WithDB optimizes against an existing database (for example Result.DB of
// a previous run), reusing its classification cache and synthesized
// circuits. The database may be shared by concurrent Optimize calls.
func WithDB(db *DB) Option {
	return func(o *core.Options) { o.DB = db }
}

// NewMetricsRegistry returns an empty metrics registry for WithMetrics;
// serve it over HTTP with MetricsRegistry.Handler (Prometheus text format).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WithMetrics publishes the run's live counters on r: rewriting activity
// under mcc_* (runs, rounds, rewrites, AND gates removed, every degradation
// class) and database activity under mcdb_* (classifications, cache hit
// rate, synthesis outcomes). Registration is get-or-create, so any number
// of concurrent Optimize calls may share one registry — this is how the
// mcserved daemon exposes one observable surface for all requests.
func WithMetrics(r *MetricsRegistry) Option {
	return func(o *core.Options) { o.Metrics = r }
}

// WithCutSize sets the maximum cut size K (2..6, default 6).
func WithCutSize(k int) Option {
	return func(o *core.Options) { o.CutSize = k }
}

// WithIncremental is ignored: Minimize always reuses the previous round's
// cut lists where they provably still hold, and the optimized network is
// the same as without reuse.
//
// Deprecated: there is no longer a full-recompute mode to switch to; drop
// the option.
func WithIncremental(on bool) Option {
	return func(*core.Options) {}
}

// WithZeroGain also applies replacements that do not change the cost —
// useful to shake a network out of a local minimum.
func WithZeroGain(on bool) Option {
	return func(o *core.Options) { o.AllowZeroGain = on }
}

// Optimize runs rewriting rounds on net until convergence (or the bound
// set by WithMaxRounds), honoring ctx for cancellation between rounds,
// inside cut enumeration, per chunk of classified nodes and every 64
// commits; a database synthesis already under way finishes first. The input
// network is not modified; a canceled run still returns a valid, partially
// optimized network with Result.Interrupted set.
func Optimize(ctx context.Context, net *Network, opts ...Option) Result {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return core.MinimizeMCContext(ctx, net, o)
}
