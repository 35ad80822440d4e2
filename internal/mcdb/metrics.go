package mcdb

import "repro/internal/metrics"

// RegisterMetrics exposes the database's live activity counters on r under
// the mcdb_* names, read at scrape time from the same atomics that back
// Stats — no double bookkeeping, no sampling loop. Registration is
// idempotent per registry (the first binding wins), so a database shared by
// many engines can be registered by each of them; registering a *different*
// database on the same registry is also a no-op, keeping the first one,
// which matches the one-warm-DB-per-process deployment of mcserved.
func (db *DB) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("mcdb_classifications_total",
		"Affine classifications computed (class cache misses).",
		func() float64 { return float64(db.stats.classified.Load()) })
	r.CounterFunc("mcdb_class_cache_hits_total",
		"Classification calls answered from the class cache.",
		func() float64 { return float64(db.stats.classCacheHits.Load()) })
	r.GaugeFunc("mcdb_class_cache_hit_rate",
		"Fraction of classification calls answered from the cache.",
		func() float64 { return db.Stats().ClassHitRate() })
	r.CounterFunc("mcdb_incomplete_classifications_total",
		"Classifications that hit the spectral iteration limit.",
		func() float64 { return float64(db.stats.incomplete.Load()) })
	r.CounterFunc("mcdb_entry_cache_hits_total",
		"Representative-circuit lookups answered from the entry cache.",
		func() float64 { return float64(db.stats.entryCacheHits.Load()) })
	r.CounterFunc("mcdb_exact_syntheses_total",
		"Entries proven MC-optimal by exhaustive search.",
		func() float64 { return float64(db.stats.exactSyntheses.Load()) })
	r.CounterFunc("mcdb_davio_fallbacks_total",
		"Entries built by Davio decomposition after exact search gave up.",
		func() float64 { return float64(db.stats.davioFallbacks.Load()) })
	r.CounterFunc("mcdb_recovered_entries_total",
		"Entries admitted from snapshots and journal replay.",
		func() float64 { return float64(db.stats.recovered.Load()) })
	r.CounterFunc("mcdb_quarantined_entries_total",
		"Persisted records rejected by checksum or validation and skipped.",
		func() float64 { return float64(db.stats.quarantined.Load()) })
	r.GaugeFunc("mcdb_classes",
		"Distinct cut functions in the classification cache.",
		func() float64 { return float64(db.NumClasses()) })
	r.GaugeFunc("mcdb_entries",
		"Synthesized representative circuits in the database.",
		func() float64 { return float64(db.NumEntries()) })

	// SAT refiner activity (refine.go, DESIGN.md §15). Counters move only
	// while a Refine pass runs — offline via `mcdb refine` or in mcserved's
	// background refiner goroutine.
	r.CounterFunc("mcdb_refine_attempts_total",
		"Entries the SAT refiner worked on.",
		func() float64 { return float64(db.stats.refineAttempts.Load()) })
	r.CounterFunc("mcdb_refine_improved_total",
		"Entries replaced by a smaller SAT-synthesized circuit.",
		func() float64 { return float64(db.stats.refineImproved.Load()) })
	r.CounterFunc("mcdb_refine_proven_total",
		"Entries stamped proven-optimal (UNSAT at MC−1 or degree bound).",
		func() float64 { return float64(db.stats.refineProven.Load()) })
	r.CounterFunc("mcdb_refine_unknown_total",
		"Refinement attempts abandoned within the conflict budget.",
		func() float64 { return float64(db.stats.refineUnknown.Load()) })
	r.CounterFunc("mcdb_refine_rejected_total",
		"Decoded SAT models refused by the validation gate.",
		func() float64 { return float64(db.stats.refineRejected.Load()) })
	r.CounterFunc("mcdb_refine_ands_saved_total",
		"AND gates removed from stored circuits by refinement.",
		func() float64 { return float64(db.stats.refineAndsSaved.Load()) })

	// Classification fast-path observability (DESIGN.md §14): the step
	// histogram ranges from trivial searches to the iteration limit.
	db.classifySteps.Store(r.Histogram("mcc_classify_steps",
		"DFS steps consumed per classification that missed the caches.",
		metrics.ExpBuckets(100, 4, 6)))
}
