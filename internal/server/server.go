// Package server implements mcserved: a long-running HTTP service wrapping
// the mcc optimization engine. One process holds one warm synthesis database
// (mcdb) and one metrics registry; every request is optimized against them,
// so the classification cache — the dominant cost of a cold run — is paid
// once per process instead of once per invocation.
//
// Endpoints (schemas, error codes, and semantics in API.md):
//
//	POST   /v1/optimize        optimize a Bristol or JSON gate-list network
//	POST   /v1/optimize/batch  optimize an array of envelopes, per-item status
//	POST   /v1/jobs            submit an async optimization, 202 + job id
//	GET    /v1/jobs/{id}       poll a job; DELETE cancels it
//	POST   /admin/snapshot     checkpoint the durable store (and result cache) now
//	POST   /admin/reload       merge a validated snapshot file into the live DB
//	POST   /admin/refine       run one SAT refinement pass over the warm DB now
//	GET    /admin/dbinfo       database and durability statistics
//	GET    /metrics            Prometheus text exposition of the shared registry
//	GET    /healthz            liveness (always 200 while the process serves)
//	GET    /readyz             readiness (503 until warm-up finishes or while draining)
//
// Concurrency model: a bounded worker pool of Config.Workers optimizations
// runs at once; up to Config.QueueDepth further requests wait for a slot.
// Beyond that the server sheds load with 429 and a Retry-After header —
// backpressure, not unbounded queueing. Each request carries a context
// deadline threaded through MinimizeMCContext; an expired deadline yields a
// clean 504 with no goroutine left behind. BeginDrain/Drain stop admission
// (503) and wait for in-flight work, which is how the daemon handles
// SIGTERM.
//
// Every unit of work — sync request, batch item, job — flows through the
// content-addressed result cache (internal/rescache): a request whose
// canonical (network, cost model, options) address is cached is answered
// byte-identically to the cold response without touching the engine or the
// admission queue, and a thundering herd on one uncached address runs the
// optimization once. The X-MC-Cache response header says which path served
// each response (miss, hit, coalesced).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mcdb"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/xag"
	"repro/mcc"
)

// Config configures a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers bounds how many optimizations run concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot (default 64). Requests beyond Workers+QueueDepth get 429.
	QueueDepth int
	// MaxPayloadBytes bounds the request body (default 32 MiB); larger
	// bodies get 413.
	MaxPayloadBytes int64
	// DefaultDeadline applies when a request sets none (default 60s);
	// MaxDeadline caps what a request may ask for (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxRequestWorkers caps the per-request engine worker count (default 4):
	// the pool already provides cross-request parallelism, so a single
	// request must not fan out over the whole machine.
	MaxRequestWorkers int

	// CacheEntries bounds the result cache entry count (default 4096);
	// negative disables the cache (and with it singleflight coalescing).
	// CacheBytes bounds its resident bytes (default 256 MiB).
	CacheEntries int
	CacheBytes   int64
	// MaxBatchItems caps how many envelopes one batch request may carry
	// (default 64).
	MaxBatchItems int
	// MaxJobs bounds the async job table (default 1024); submissions beyond
	// it shed with 429. JobTTL is how long a finished job stays pollable
	// (default 10m).
	MaxJobs int
	JobTTL  time.Duration

	// Registry receives every metric (server, engine, and database); a
	// private registry is created when nil. See Server.Registry.
	Registry *metrics.Registry
	// DB is the process-wide synthesis database; a fresh one is created when
	// nil. See Server.DB.
	DB *mcdb.DB
	// Store, when set, is the durable snapshot/journal store behind DB. It
	// enables the admin snapshot endpoint and the background snapshotter
	// (StartSnapshotter); its metrics land on Registry.
	Store *mcdb.Store
	// Logf, when set, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxPayloadBytes <= 0 {
		c.MaxPayloadBytes = 32 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxRequestWorkers <= 0 {
		c.MaxRequestWorkers = 4
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.DB == nil {
		c.DB = mcdb.New(mcdb.Options{})
	}
	return c
}

// serverMetrics is the server-level instrument set; engine (mcc_*) and
// database (mcdb_*) metrics land on the same registry via WithMetrics and
// RegisterMetrics.
type serverMetrics struct {
	requests       *metrics.CounterVec // by status code
	inflight       *metrics.Gauge
	queueRejects   *metrics.Counter
	deadlineExpiry *metrics.Counter
	clientCancels  *metrics.Counter
	verifyFailures *metrics.Counter
	panics         *metrics.Counter
	duration       *metrics.Histogram
	queueWait      *metrics.Histogram
	payloadBytes   *metrics.Histogram
	ready          *metrics.Gauge
	draining       *metrics.Gauge

	jobsSubmitted *metrics.Counter
	jobsCompleted *metrics.CounterVec // by outcome
	jobsEvicted   *metrics.Counter
}

// Server is the resident optimization service. Create one with New, mount
// Handler on an http.Server, and call BeginDrain/Drain on shutdown.
type Server struct {
	cfg Config
	met serverMetrics

	sem      chan struct{} // worker slots
	pending  atomic.Int64  // admitted requests (queued + running)
	running  atomic.Int64  // requests holding a worker slot
	draining atomic.Bool
	ready    atomic.Bool

	// cache is the content-addressed result cache; nil when disabled
	// (Config.CacheEntries < 0), in which case every request computes.
	cache *rescache.Cache
	// jobs is the bounded async job table behind /v1/jobs.
	jobs *jobTable

	// refineMu serializes SAT refinement passes (admin and background);
	// refineRuns/refineBG/lastRefine feed /admin/dbinfo and the
	// mcserved_refine_* metrics. See refine.go.
	refineMu   sync.Mutex
	refineRuns atomic.Int64
	refineBG   atomic.Bool
	lastRefine atomic.Pointer[refineRun]

	deprecationOnce sync.Once

	// beforeOptimize, when non-nil, runs on the worker goroutine after slot
	// acquisition and before the engine starts — a test seam for exercising
	// queue saturation, deadlines, and drain without timing races.
	beforeOptimize func()
}

// New returns a server over cfg. The server starts ready; a caller that
// wants warm-up gating calls SetReady(false), warms the database (Warmup),
// and then SetReady(true).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.Workers)}
	s.ready.Store(true)
	if cfg.CacheEntries >= 0 {
		s.cache = rescache.New(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.jobs = newJobTable(cfg.MaxJobs, cfg.JobTTL)

	r := cfg.Registry
	s.met = serverMetrics{
		requests:       r.CounterVec("mcserved_requests_total", "Optimize requests by HTTP status code.", "code"),
		inflight:       r.Gauge("mcserved_requests_inflight", "Optimize requests currently holding a worker slot."),
		queueRejects:   r.Counter("mcserved_queue_rejections_total", "Requests shed with 429 because the queue was full."),
		deadlineExpiry: r.Counter("mcserved_deadline_timeouts_total", "Requests that hit their deadline (504), queued or running."),
		clientCancels:  r.Counter("mcserved_client_cancels_total", "Requests abandoned by the client before completion."),
		verifyFailures: r.Counter("mcserved_verify_failures_total", "Requests whose verification miter rolled a round back (500)."),
		panics:         r.Counter("mcserved_panics_total", "Requests aborted by a recovered panic (500); the daemon keeps serving."),
		duration:       r.Histogram("mcserved_request_duration_seconds", "End-to-end optimize request duration.", nil),
		queueWait:      r.Histogram("mcserved_queue_wait_seconds", "Time spent waiting for a worker slot.", metrics.ExpBuckets(0.001, 4, 10)),
		payloadBytes:   r.Histogram("mcserved_payload_bytes", "Optimize request body size.", metrics.ExpBuckets(64, 4, 12)),
		ready:          r.Gauge("mcserved_ready", "1 when the server passes readiness, 0 otherwise."),
		draining:       r.Gauge("mcserved_draining", "1 while the server drains for shutdown."),

		jobsSubmitted: r.Counter("mcserved_jobs_submitted_total", "Async jobs accepted by POST /v1/jobs."),
		jobsCompleted: r.CounterVec("mcserved_jobs_completed_total", "Async jobs finished, by outcome.", "outcome"),
		jobsEvicted:   r.Counter("mcserved_jobs_evicted_total", "Finished jobs dropped by TTL expiry."),
	}
	s.jobs.evicted = func() { s.met.jobsEvicted.Inc() }
	r.GaugeFunc("mcserved_jobs_active", "Async jobs queued or running.",
		func() float64 { return float64(s.jobs.active()) })
	r.GaugeFunc("mcserved_jobs_table", "Jobs held in the table, any state.",
		func() float64 { return float64(s.jobs.size()) })
	if s.cache != nil {
		s.cache.RegisterMetrics(r)
	}
	r.GaugeFunc("mcserved_queue_depth", "Admitted requests waiting for a worker slot.",
		func() float64 { return float64(s.pending.Load() - s.running.Load()) })
	r.Gauge("mcserved_queue_limit", "Maximum queued requests before load shedding.").
		Set(float64(cfg.QueueDepth))
	r.Gauge("mcserved_worker_slots", "Size of the optimization worker pool.").
		Set(float64(cfg.Workers))
	r.CounterFunc("mcserved_refine_runs_total",
		"SAT refinement passes completed (admin-triggered and background).",
		func() float64 { return float64(s.refineRuns.Load()) })
	r.GaugeFunc("mcserved_refine_background",
		"1 when the background refiner loop is enabled.",
		func() float64 {
			if s.refineBG.Load() {
				return 1
			}
			return 0
		})
	s.met.ready.Set(1)
	cfg.DB.RegisterMetrics(r)
	if cfg.Store != nil {
		cfg.Store.RegisterMetrics(r)
	}
	return s
}

// Registry returns the registry all server, engine, and database metrics
// land on.
func (s *Server) Registry() *metrics.Registry { return s.cfg.Registry }

// DB returns the process-wide synthesis database.
func (s *Server) DB() *mcdb.DB { return s.cfg.DB }

// Cache returns the result cache, or nil when disabled. The daemon uses it
// to load/save the cache snapshot around restarts.
func (s *Server) Cache() *rescache.Cache { return s.cache }

// SetReady flips the readiness probe; New starts ready.
func (s *Server) SetReady(ok bool) {
	s.ready.Store(ok)
	if ok {
		s.met.ready.Set(1)
	} else {
		s.met.ready.Set(0)
	}
}

// Warmup optimizes net against the shared database, pre-paying its
// classification cache before real traffic arrives, then marks the server
// ready. Honors ctx.
func (s *Server) Warmup(ctx context.Context, net *xag.Network) {
	start := time.Now()
	res := mcc.Optimize(ctx, net,
		mcc.WithDB(s.cfg.DB),
		mcc.WithMetrics(s.cfg.Registry),
		mcc.WithWorkers(s.cfg.MaxRequestWorkers),
	)
	s.logf("server: warm-up done in %v (%d classes cached)", time.Since(start).Round(time.Millisecond), s.cfg.DB.NumClasses())
	_ = res
	s.SetReady(true)
}

// BeginDrain stops admitting optimize requests (they get 503) and flips
// readiness, so load balancers stop routing here. In-flight and queued
// requests keep running.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.met.draining.Set(1)
		s.SetReady(false)
		s.logf("server: draining")
	}
}

// Drain calls BeginDrain and then blocks until every admitted request has
// finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still in flight: %w", s.pending.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/optimize/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /admin/snapshot", s.handleAdminSnapshot)
	mux.HandleFunc("POST /admin/reload", s.handleAdminReload)
	mux.HandleFunc("POST /admin/refine", s.handleAdminRefine)
	mux.HandleFunc("GET /admin/dbinfo", s.handleAdminDBInfo)
	mux.Handle("GET /metrics", s.cfg.Registry.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case s.draining.Load():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !s.ready.Load():
			http.Error(w, "warming up", http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
		}
	})
	return mux
}

// RequestOptions are the per-request optimization knobs of POST /v1/optimize.
// In a JSON envelope they live under "options"; with a raw Bristol body they
// arrive as query parameters (cost, rounds, verify, workers, k, zero-gain,
// incremental, deadline).
type RequestOptions struct {
	Cost        string `json:"cost,omitempty"` // mc (default) | size | depth
	MaxRounds   int    `json:"max_rounds,omitempty"`
	Verify      bool   `json:"verify,omitempty"`
	Workers     int    `json:"workers,omitempty"`  // capped by Config.MaxRequestWorkers
	CutSize     int    `json:"cut_size,omitempty"` // 2..6, default 6
	ZeroGain    bool   `json:"zero_gain,omitempty"`
	Incremental *bool  `json:"incremental,omitempty"` // default true
	DeadlineMS  int    `json:"deadline_ms,omitempty"` // capped by Config.MaxDeadline

	// SequentialCommit is accepted and ignored: the commit stage is always
	// one sequential pass. Deprecated (see API.md); it is not part of the
	// result-cache key.
	SequentialCommit bool `json:"sequential_commit,omitempty"`
}

// OptimizeRequest is the JSON envelope of POST /v1/optimize. Exactly one of
// Bristol and Network must be set.
type OptimizeRequest struct {
	Bristol string         `json:"bristol,omitempty"`
	Network *NetworkJSON   `json:"network,omitempty"`
	Options RequestOptions `json:"options"`
}

// Report is the structured outcome of one optimize request.
type Report struct {
	ANDBefore         int             `json:"and_before"`
	ANDAfter          int             `json:"and_after"`
	XORBefore         int             `json:"xor_before"`
	XORAfter          int             `json:"xor_after"`
	ANDDepthBefore    int             `json:"and_depth_before"`
	ANDDepthAfter     int             `json:"and_depth_after"`
	Rounds            int             `json:"rounds"`
	Replacements      int             `json:"replacements"`
	Converged         bool            `json:"converged"`
	Cost              string          `json:"cost"`
	Degraded          *DegradedReport `json:"degraded,omitempty"`
	ClassCacheHitRate float64         `json:"class_cache_hit_rate"`
	DurationMS        float64         `json:"duration_ms"`
}

// DegradedReport mirrors the engine's contained-fault counters when any
// fired during the request.
type DegradedReport struct {
	RejectedRewrites          int `json:"rejected_rewrites,omitempty"`
	InvalidEntries            int `json:"invalid_db_entries,omitempty"`
	IncompleteClassifications int `json:"incomplete_classifications,omitempty"`
	RecoveredPanics           int `json:"recovered_panics,omitempty"`
	RolledBackRounds          int `json:"rolled_back_rounds,omitempty"`
}

// OptimizeResponse is the JSON response of POST /v1/optimize. The optimized
// network comes back in the encoding the request used: Bristol text for a
// Bristol request, a JSON gate list for a gate-list request.
type OptimizeResponse struct {
	Report  Report       `json:"report"`
	Bristol string       `json:"bristol,omitempty"`
	Network *NetworkJSON `json:"network,omitempty"`
}

// readBody reads the (bounded) request body, mapping overflow to the
// payload_too_large code.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxPayloadBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "", "request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, errf(http.StatusBadRequest, CodeInvalidRequest, "", "reading body: %v", err)
	}
	s.met.payloadBytes.Observe(float64(len(body)))
	return body, nil
}

// handleOptimize is POST /v1/optimize: decode, consult the cache, compute
// on a miss under the request deadline, respond.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		s.failf(w, http.StatusServiceUnavailable, CodeDraining, "", "server is draining")
		return
	}
	body, apiErr := s.readBody(w, r)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	dr, apiErr := s.decodeSync(r, body)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}

	// The deadline covers queue wait plus optimization: a request that
	// queues past its deadline is as dead as one that optimizes past it.
	// Cache hits return long before it matters.
	ctx, cancel := context.WithTimeout(r.Context(), dr.opts.deadline(s.cfg))
	defer cancel()

	// Per-request panic isolation: whatever goes wrong inside this one
	// optimization — an engine bug beyond the per-node containment, a
	// corrupted entry slipping past a check, an encoding failure — is
	// confined to this request. The worker recovers, the caller gets a 500,
	// the daemon keeps serving. A panic inside a coalesced computation
	// resurfaces on the leader's stack (followers get an error), so this
	// recover still sees it.
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			s.logf("server: request aborted by panic: %v", rec)
			s.failf(w, http.StatusInternalServerError, CodeInternal, "", "internal error: request aborted")
		}
	}()

	res, out, err := s.optimizeOne(ctx, dr, false)
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			s.fail(w, ae)
			return
		}
		s.finishCanceled(w, ctx, r)
		return
	}
	s.met.duration.Observe(time.Since(start).Seconds())
	s.writeOptimizeResponse(w, r, res, dr, out)
}

// optimizeOne runs one decoded request through the result cache; on a miss
// it runs the full admission → queue → engine path exactly once per herd.
// The returned error is either an *apiError or a context error (the
// caller's deadline or cancellation). preAdmitted marks work that already
// holds an admission slot (async jobs claim theirs at submission).
func (s *Server) optimizeOne(ctx context.Context, dr *decodedRequest, preAdmitted bool) (*rescache.Result, rescache.Outcome, error) {
	compute := func() (*rescache.Result, bool, error) {
		return s.computeResult(ctx, dr, preAdmitted)
	}
	if s.cache == nil {
		res, _, err := compute()
		return res, rescache.Miss, err
	}
	return s.cache.Do(ctx, cacheKey(dr.net, dr.opts), compute)
}

// computeResult is the cold path: claim admission, wait for a worker slot,
// run the engine, freeze the result. The bool result reports whether the
// result is cacheable — degraded runs are served but never cached, so a
// contained fault can't poison the address for every future caller.
func (s *Server) computeResult(ctx context.Context, dr *decodedRequest, preAdmitted bool) (*rescache.Result, bool, error) {
	start := time.Now()
	// Admission: one CAS claims a queue-or-worker slot; beyond the bound the
	// request is shed immediately — the queue cannot grow without limit.
	// The whole coalesced herd shares the leader's slot (and its rejection).
	if !preAdmitted {
		if !s.admit() {
			s.met.queueRejects.Inc()
			return nil, false, errf(http.StatusTooManyRequests, CodeQueueFull, "",
				"queue full (%d running, %d queued)", s.cfg.Workers, s.cfg.QueueDepth)
		}
		defer s.pending.Add(-1)
	}

	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.met.queueWait.Observe(time.Since(queued).Seconds())
		return nil, false, ctx.Err()
	}
	s.met.queueWait.Observe(time.Since(queued).Seconds())
	s.running.Add(1)
	s.met.inflight.Inc()
	defer func() {
		s.met.inflight.Dec()
		s.running.Add(-1)
		<-s.sem
	}()

	if s.beforeOptimize != nil {
		s.beforeOptimize()
	}
	// Fault-injection point: tests panic here to prove per-request isolation
	// (500 for this request, subsequent requests on the same daemon succeed).
	faultinject.Inject(faultinject.PointServerRequest, nil)

	opts := dr.opts
	mopts := []mcc.Option{
		mcc.WithDB(s.cfg.DB),
		mcc.WithMetrics(s.cfg.Registry),
		mcc.WithCost(dr.model),
		mcc.WithWorkers(opts.Workers),
		mcc.WithMaxRounds(opts.MaxRounds),
		mcc.WithVerify(opts.Verify),
		mcc.WithZeroGain(opts.ZeroGain),
	}
	if opts.CutSize != 0 {
		mopts = append(mopts, mcc.WithCutSize(opts.CutSize))
	}
	if opts.Incremental != nil {
		mopts = append(mopts, mcc.WithIncremental(*opts.Incremental))
	}
	before := dr.net.CountGates()
	res := mcc.Optimize(ctx, dr.net, mopts...)

	var verr *mcc.VerifyError
	switch {
	case errors.As(res.Err, &verr):
		s.met.verifyFailures.Inc()
		return nil, false, errf(http.StatusInternalServerError, CodeVerifyFailed, "", "verification failed: %v", verr)
	case res.Interrupted:
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, false, errf(http.StatusInternalServerError, CodeInternal, "", "optimization interrupted: %v", res.Err)
	}

	after := res.Network.CountGates()
	rep := Report{
		ANDBefore:         before.And,
		ANDAfter:          after.And,
		XORBefore:         before.Xor,
		XORAfter:          after.Xor,
		ANDDepthBefore:    before.AndDepth,
		ANDDepthAfter:     after.AndDepth,
		Rounds:            len(res.Rounds),
		Converged:         res.Converged,
		Cost:              opts.Cost,
		ClassCacheHitRate: s.cfg.DB.Stats().ClassHitRate(),
		DurationMS:        float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, rd := range res.Rounds {
		rep.Replacements += rd.Replacements
	}
	if d := res.Degraded; d.Total() > 0 {
		rep.Degraded = &DegradedReport{
			RejectedRewrites:          d.RejectedRewrites,
			InvalidEntries:            d.InvalidEntries,
			IncompleteClassifications: d.IncompleteClassifications,
			RecoveredPanics:           d.RecoveredPanics,
			RolledBackRounds:          d.RolledBackRounds,
		}
	}
	frozen, err := buildResult(rep, res.Network)
	if err != nil {
		return nil, false, errf(http.StatusInternalServerError, CodeInternal, "", "%v", err)
	}
	// Incomplete classifications are routine deterministic skips (the
	// canonizer's iteration limit fires on the same cuts every run), so a
	// result degraded only by them caches like a clean one. Any other
	// containment event — recovered panic, invalid DB entry, rejected
	// rewrite, rolled-back round — reflects transient state: serve the
	// result but do not store it.
	store := res.Degraded.Total() == res.Degraded.IncompleteClassifications
	return frozen, store, nil
}

// finishCanceled classifies a context-terminated request: an expired
// deadline is the caller's 504; a vanished client is just counted.
func (s *Server) finishCanceled(w http.ResponseWriter, ctx context.Context, r *http.Request) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) && r.Context().Err() == nil {
		s.met.deadlineExpiry.Inc()
		s.failf(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "", "deadline exceeded")
		return
	}
	s.met.clientCancels.Inc()
	// The client is gone; the status code is bookkeeping only.
	s.met.requests.With("499").Inc()
}

// admit claims one of the Workers+QueueDepth admission slots, or reports
// that the server is saturated.
func (s *Server) admit() bool {
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	for {
		p := s.pending.Load()
		if p >= limit {
			return false
		}
		if s.pending.CompareAndSwap(p, p+1) {
			return true
		}
	}
}
