package core

import (
	"repro/internal/metrics"
)

// engineMetrics is the engine's instrument set on the registry passed via
// Options.Metrics. Instruments from a nil registry are valid no-op-rendered
// counters, so the engine increments unconditionally.
type engineMetrics struct {
	runs        *metrics.Counter
	interrupted *metrics.Counter
	converged   *metrics.Counter
	rounds      *metrics.Counter
	rewrites    *metrics.Counter
	andsRemoved *metrics.Counter

	rejectedRewrites *metrics.Counter
	invalidEntries   *metrics.Counter
	incompleteClass  *metrics.Counter
	recoveredPanics  *metrics.Counter
	rolledBackRounds *metrics.Counter
}

// newEngineMetrics registers (or re-binds) the engine counters on r. The
// names are shared by every engine on the registry: the counters describe
// the process-wide optimization activity, which is exactly what a resident
// service wants to scrape.
func newEngineMetrics(r *metrics.Registry) engineMetrics {
	return engineMetrics{
		runs:        r.Counter("mcc_runs_total", "Optimization runs started (Engine.Minimize calls)."),
		interrupted: r.Counter("mcc_runs_interrupted_total", "Runs stopped early by context cancellation or deadline."),
		converged:   r.Counter("mcc_runs_converged_total", "Runs that reached cost-model convergence."),
		rounds:      r.Counter("mcc_rounds_total", "Rewriting rounds executed."),
		rewrites:    r.Counter("mcc_rewrites_total", "Cut replacements committed."),
		andsRemoved: r.Counter("mcc_and_gates_removed_total", "AND gates removed by committed rounds (positive deltas only)."),

		rejectedRewrites: r.Counter("mcc_rejected_rewrites_total", "Replacements discarded by the per-rewrite truth-table check."),
		invalidEntries:   r.Counter("mcc_invalid_db_entries_total", "Database entries that failed structural validation."),
		incompleteClass:  r.Counter("mcc_incomplete_classifications_total", "Cuts skipped because classification hit its iteration limit."),
		recoveredPanics:  r.Counter("mcc_recovered_panics_total", "Per-node panics recovered during rewriting."),
		rolledBackRounds: r.Counter("mcc_rolled_back_rounds_total", "Rounds rolled back by the end-of-round verification miter."),
	}
}

// observeRound records one completed round.
func (m *engineMetrics) observeRound(stats RoundStats) {
	m.rounds.Inc()
	m.rewrites.Add(int64(stats.Replacements))
	if d := stats.Before.And - stats.After.And; d > 0 {
		m.andsRemoved.Add(int64(d))
	}
}

// observeDegradation records the degradation delta of a run (or of one
// stateless Round call).
func (m *engineMetrics) observeDegradation(d Degradation) {
	m.rejectedRewrites.Add(int64(d.RejectedRewrites))
	m.invalidEntries.Add(int64(d.InvalidEntries))
	m.incompleteClass.Add(int64(d.IncompleteClassifications))
	m.recoveredPanics.Add(int64(d.RecoveredPanics))
	m.rolledBackRounds.Add(int64(d.RolledBackRounds))
}
