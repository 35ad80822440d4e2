package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/xag"
	"repro/mcc"
)

// Serve-mix sizing: catalogueSize keys with about hitsPerKey repeats each
// give a pass of roughly 1,100 hits and 120 misses, so one pass already
// supports a hit p99 and a miss p90 under the tail rule.
const (
	catalogueSize = adderSlots + comparatorSlots + maxSlots + multiplierSlots + controlSlots
	hitsPerKey    = 9
	clients       = 2
)

// serveKey is one catalogue entry ready to send.
type serveKey struct {
	spec  genSpec
	model cost.Model
	net   *xag.Network
	body  []byte // v1 JSON envelope
}

// buildKeys generates the catalogue's circuits and request envelopes.
func buildKeys(specs []genSpec) ([]serveKey, error) {
	keys := make([]serveKey, len(specs))
	for i, g := range specs {
		m, err := cost.FromName(g.Cost)
		if err != nil {
			return nil, err
		}
		net := g.build()
		var b strings.Builder
		if err := net.WriteBristol(&b); err != nil {
			return nil, fmt.Errorf("%s: %w", g.label(), err)
		}
		body, err := json.Marshal(server.OptimizeRequest{
			Bristol: b.String(),
			Options: server.RequestOptions{Cost: g.Cost, Verify: true, Workers: 1},
		})
		if err != nil {
			return nil, err
		}
		keys[i] = serveKey{spec: g, model: m, net: net, body: body}
	}
	return keys, nil
}

// warmServeDB optimizes every catalogue circuit once against db, through
// Server.Warmup for mc keys and an equivalent depth-model run for depth
// keys, so that every request's classifications are cache hits and a
// miss costs the same whichever client reaches its classes first.
func warmServeDB(ctx context.Context, db *mcdb.DB, keys []serveKey) {
	srv := server.New(server.Config{DB: db, Workers: clients, MaxRequestWorkers: engineWorkers})
	for _, k := range keys {
		if k.spec.Cost == "mc" {
			srv.Warmup(ctx, k.net)
			continue
		}
		mcc.Optimize(ctx, k.net, mcc.WithDB(db), mcc.WithCost(k.model), mcc.WithWorkers(engineWorkers))
	}
}

// reqSample is one request as the client saw it.
type reqSample struct {
	id         int
	key        int
	status     int
	outcome    string // X-MC-Cache
	body       []byte
	start, end time.Time
	err        error
}

func (s reqSample) latency() time.Duration { return s.end.Sub(s.start) }

// servePass is one replay of the request sequence against a fresh server.
type servePass struct {
	wall      time.Duration
	startup   time.Duration // server.New through httptest listener
	samples   []reqSample
	cache     rescache.Stats
	queueWait float64 // seconds, summed over admitted misses
	queued    int64
	rejected  int64
	root      int // the pass span of a traced pass
}

// serveRunner replays the seeded request sequence; every pass starts a new
// server (empty result cache) over the one database warmed in set-up.
type serveRunner struct {
	keys  []serveKey
	steps []step
	db    *mcdb.DB
	seed  int64
}

// pass drives the sequence with two closed-loop clients on keep-alive
// connections. Single steps go to whichever client is free; a pair step
// waits until both are free and sends its request from both at once.
func (r *serveRunner) pass(ctx context.Context, rec *Recorder) servePass {
	var p servePass
	t0 := time.Now()
	reg := metrics.NewRegistry()
	srv := server.New(server.Config{DB: r.db, Workers: clients, MaxRequestWorkers: engineWorkers, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	p.startup = time.Since(t0)
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	url := ts.URL + "/v1/optimize"

	var mu sync.Mutex
	var nextID atomic.Int64
	send := func(key int) {
		s := reqSample{id: int(nextID.Add(1)), key: key}
		s.start = time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.keys[key].body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			var resp *http.Response
			if resp, err = client.Do(req); err == nil {
				s.status = resp.StatusCode
				s.outcome = resp.Header.Get("X-MC-Cache")
				s.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
		}
		s.end = time.Now()
		s.err = err
		rec.Add(p.root, "http.request", fmt.Sprintf("req-%d", s.id), s.start, s.end)
		mu.Lock()
		p.samples = append(p.samples, s)
		mu.Unlock()
	}

	p.root = rec.Open(0, "pass", "requests")
	start := time.Now()
	for i := 0; i < len(r.steps); {
		var wg sync.WaitGroup
		if r.steps[i].Pair {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(k int) { defer wg.Done(); send(k) }(r.steps[i].Key)
			}
			wg.Wait()
			i++
			continue
		}
		j := i
		for j < len(r.steps) && !r.steps[j].Pair {
			j++
		}
		var next atomic.Int64
		next.Store(int64(i))
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(end int64) {
				defer wg.Done()
				for n := next.Add(1) - 1; n < end; n = next.Add(1) - 1 {
					send(r.steps[n].Key)
				}
			}(int64(j))
		}
		wg.Wait()
		i = j
	}
	p.wall = time.Since(start)
	rec.Close(p.root)

	p.cache = srv.Cache().Stats()
	qw := reg.Histogram("mcserved_queue_wait_seconds", "", nil)
	p.queueWait, p.queued = qw.Sum(), qw.Count()
	p.rejected = reg.Counter("mcserved_queue_rejections_total", "").Value()
	return p
}

// servedResult is the decoded body of a 200 optimize response.
type servedResult struct {
	Report  server.Report `json:"report"`
	Bristol string        `json:"bristol"`
}

// keyResult is what one key's requests produced in one pass.
type keyResult struct {
	first    *reqSample // the key's earliest miss
	andAfter int
	rounds   int
	repl     int
	requests int
	// uncached marks a result degraded by a contained fault other than an
	// incomplete classification: the server serves such results but does
	// not cache them, so every request for the key computes again.
	uncached bool
	overhead []float64 // per miss: client latency - report.duration_ms
}

// uncacheable mirrors the server's rule for results it will not cache.
func uncacheable(rep server.Report) bool {
	d := rep.Degraded
	return d != nil && d.RejectedRewrites+d.InvalidEntries+d.RecoveredPanics+d.RolledBackRounds > 0
}

// checkPass is the serve-mix correctness gate, run after the pass. Every
// request succeeded. Each key's result decodes to a circuit that simEqual
// proves equivalent to the request's, and whose AND count is the one its
// report states. A cacheable key has exactly one miss, and every hit and
// coalesced response is byte-identical to it. An uncached key has no
// hits, and every response carries the same circuit.
func (r *serveRunner) checkPass(p servePass) (map[int]*keyResult, []string) {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	byKey := make(map[int]*keyResult)
	var ok []*reqSample
	for i := range p.samples {
		s := &p.samples[i]
		label := r.keys[s.key].spec.label()
		switch {
		case s.err != nil:
			fail("req-%d %s: %v", s.id, label, s.err)
			continue
		case s.status != http.StatusOK:
			fail("req-%d %s: status %d: %s", s.id, label, s.status, bytes.TrimSpace(s.body))
			continue
		}
		kr := byKey[s.key]
		if kr == nil {
			kr = &keyResult{}
			byKey[s.key] = kr
		}
		kr.requests++
		if s.outcome == "miss" && (kr.first == nil || s.start.Before(kr.first.start)) {
			kr.first = s
		}
		ok = append(ok, s)
	}
	decoded := make(map[int]servedResult) // by key: the first miss
	for k, kr := range byKey {
		label := r.keys[k].spec.label()
		if kr.first == nil {
			fail("%s: served without a miss", label)
			continue
		}
		var res servedResult
		if err := json.Unmarshal(kr.first.body, &res); err != nil {
			fail("%s: decoding response: %v", label, err)
			continue
		}
		decoded[k] = res
		kr.andAfter, kr.uncached = res.Report.ANDAfter, uncacheable(res.Report)
		kr.rounds, kr.repl = res.Report.Rounds, res.Report.Replacements
		back, err := xag.ReadBristol(strings.NewReader(res.Bristol))
		if err != nil {
			fail("%s: response circuit: %v", label, err)
			continue
		}
		if back.NumAnds() != res.Report.ANDAfter {
			fail("%s: report says %d ANDs, circuit has %d", label, res.Report.ANDAfter, back.NumAnds())
		}
		if err := simEqual(r.keys[k].net, back, uint64(r.seed)); err != nil {
			fail("%s: served circuit not equivalent to request: %v", label, err)
		}
	}
	for _, s := range ok {
		kr, first := byKey[s.key], decoded[s.key]
		if kr.first == nil {
			continue
		}
		label := r.keys[s.key].spec.label()
		if !kr.uncached {
			switch {
			case s.outcome == "miss" && s != kr.first:
				fail("req-%d %s: second miss for a cacheable result", s.id, label)
			case !bytes.Equal(s.body, kr.first.body):
				fail("req-%d %s: %s response differs from the miss", s.id, label, s.outcome)
			case s.outcome == "miss":
				kr.overhead = append(kr.overhead, ms(s.latency())-first.Report.DurationMS)
			}
			continue
		}
		if s.outcome == "hit" {
			fail("req-%d %s: degraded result served from the cache", s.id, label)
			continue
		}
		var res servedResult
		if err := json.Unmarshal(s.body, &res); err != nil {
			fail("req-%d %s: decoding response: %v", s.id, label, err)
			continue
		}
		if res.Bristol != first.Bristol || res.Report.ANDAfter != first.Report.ANDAfter {
			fail("req-%d %s: recomputed result differs from the first", s.id, label)
		}
		if s.outcome == "miss" {
			kr.overhead = append(kr.overhead, ms(s.latency())-res.Report.DurationMS)
		}
	}
	if len(byKey) != len(r.keys) {
		fail("%d of %d keys were served", len(byKey), len(r.keys))
	}
	return byKey, errs
}

// replay re-runs, outside the server, the work the server did for the
// pass: Bristol parse and canonical hash for every request, and for every
// key the optimization its miss ran (same options: one worker, verify on)
// as a traced leg against the warm database. The spans go under parent.
func (r *serveRunner) replay(ctx context.Context, p servePass, rec *Recorder, parent int) (legs []legOutcome, errs []string) {
	var in servedRequest
	for _, s := range p.samples {
		unit := fmt.Sprintf("req-%d", s.id)
		if err := json.Unmarshal(r.keys[s.key].body, &in); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", unit, err))
			continue
		}
		t0 := time.Now()
		net, err := xag.ReadBristol(strings.NewReader(in.Bristol))
		t1 := time.Now()
		rec.Add(parent, "xag.parse", unit, t0, t1)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", unit, err))
			continue
		}
		net.CanonicalHash()
		rec.Add(parent, "xag.hash", unit, t1, time.Now())
	}
	for _, k := range r.keys {
		l := leg{name: k.spec.label(), model: k.model, net: k.net}
		o := runLeg(ctx, l, core.Options{Workers: 1, Verify: true, Cost: k.model, DB: r.db}, r.seed, rec, parent)
		if o.err != nil {
			errs = append(errs, o.err.Error())
		}
		legs = append(legs, o)
	}
	return legs, errs
}

// servedRequest is the part of a request envelope the replay reads.
type servedRequest struct {
	Bristol string `json:"bristol"`
}

// runServe runs serve-mix: set-up builds the catalogue and warms the
// database; every pass then replays the request sequence against a fresh
// server.
func runServe(ctx context.Context, cfg config, rep *report) error {
	pr := &prober{cfg: cfg}
	if err := pr.take(ctx); err != nil {
		return err
	}
	warmLazyTables()
	keys, err := buildKeys(catalogue(cfg.seed))
	if err != nil {
		return err
	}
	db := mcdb.New(mcdb.Options{})
	t := time.Now()
	warmServeDB(ctx, db, keys)
	warm := time.Since(t).Seconds()
	rep.extra("setup.warmup_s", warm, "s")
	if err := pr.take(ctx); err != nil {
		return err
	}
	r := &serveRunner{keys: keys, steps: sequence(cfg.seed, len(keys), hitsPerKey), db: db, seed: cfg.seed}

	var walls, startups, alloc, gcs, overhead []float64
	lat := map[string][]float64{}
	var ok, andTotal int
	var uncachedKeys []string
	var queueWait float64
	var queued int64
	onePass := func(rec *Recorder) servePass {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		p := r.pass(ctx, rec)
		runtime.ReadMemStats(&m1)
		walls = append(walls, p.wall.Seconds())
		startups = append(startups, p.startup.Seconds())
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		queueWait += p.queueWait
		queued += p.queued

		byKey, errs := r.checkPass(p)
		rep.Attempted += len(p.samples)
		for _, e := range errs {
			rep.fail(e)
		}
		for _, s := range p.samples {
			if s.err == nil && s.status == http.StatusOK {
				ok++
				lat[s.outcome] = append(lat[s.outcome], ms(s.latency()))
			}
		}
		// A cacheable key has one miss and its other requests are hits or
		// coalesced, a split that is fixed by the sequence; an uncached
		// key's requests split between misses and coalesced by timing, so
		// the gates count cacheable keys and name the uncached ones.
		total, misses, others := 0, 0, 0
		var uncached []string
		for k, kr := range byKey {
			label := r.keys[k].spec.label()
			total += kr.andAfter
			rep.gate("mcc.and."+label, kr.andAfter)
			rep.gate("core.rounds."+label, kr.rounds)
			rep.gate("core.replacements."+label, kr.repl)
			overhead = append(overhead, kr.overhead...)
			if kr.uncached {
				uncached = append(uncached, label)
				continue
			}
			misses++
			others += kr.requests - 1
		}
		sort.Strings(uncached)
		rep.gate("and_total", total)
		andTotal = total
		rep.gate("rescache.misses.cacheable", misses)
		rep.gate("rescache.hits+coalesced.cacheable", others)
		rep.gate("uncached", uncached)
		uncachedKeys = uncached
		return p
	}
	var last servePass
	for i, start := 0, time.Now(); morePasses(cfg, i, start); i++ {
		last = onePass(nil)
		if err := pr.take(ctx); err != nil {
			return err
		}
	}
	rep.Passes = walls
	rep.extra("setup.server_start_s", median(startups), "s")
	setup := pr.report(rep) + warm + median(startups)

	rep.Latency = map[string]Summary{}
	for _, o := range []string{"hit", "miss", "coalesced"} {
		rep.Latency[o] = summarize(lat[o])
	}
	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	hit, miss, coal := rep.Latency["hit"], rep.Latency["miss"], rep.Latency["coalesced"]
	rep.extra("hit_p50_ms", hit.P50, "ms")
	rep.extra("hit_p99_ms", hit.Tail, "ms")
	rep.extra("miss_p50_ms", miss.P50, "ms")
	rep.extra("miss_p90_ms", miss.Tail, "ms")
	rep.extra("coalesced_p50_ms", coal.P50, "ms")
	rep.extra("req_per_s", ratio(float64(ok), wallSum), "1/s")
	rep.extra("server.queue_wait_ms", 1000*ratio(queueWait, float64(queued)), "ms")
	rep.extra("server.miss_overhead_ms", median(overhead), "ms")
	rep.extra("serve.uncached_keys", float64(len(uncachedKeys)), "count")
	for _, k := range uncachedKeys {
		rep.Notes = append(rep.Notes, "served but not cached (degraded by a contained fault): "+k)
	}
	if !cfg.trace {
		rep.set("opt_s", median(walls), "s")
		rep.set("and_total", float64(andTotal), "count")
		rep.set("setup_s", setup, "s")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		rep.extra("error_rate", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
		return nil
	}

	// Traced: one recorded pass (requests as spans), then a replay of the
	// work behind it, timed through the layers' public calls.
	untraced := last
	rec := newRecorder()
	p := onePass(rec)
	stepsReg := metrics.NewRegistry()
	db.RegisterMetrics(stepsReg)
	steps0 := stepsOf(stepsReg)
	replayRoot := rec.Open(0, "replay", "traced")
	legs, errs := r.replay(ctx, p, rec, replayRoot)
	rec.Close(replayRoot)
	steps1 := stepsOf(stepsReg)
	for _, e := range errs {
		rep.fail(e)
	}
	rep.Attempted += len(legs)
	for _, o := range legs {
		rep.gate("mcc.and."+o.name, o.andAfter) // the library path serves what the server did
		rep.gate("core.rounds."+o.name, o.rounds)
		rep.gate("core.replacements."+o.name, o.repl)
	}
	rep.extra("untraced.miss_p50_ms", missP50(untraced), "ms")
	rep.extra("trace.miss_p50_ms", missP50(p), "ms")

	rep.Spans = rec.Spans()
	self := selfTimes(rep.Spans, p.root)
	rep.setSelfTimes(self)
	rep.setLayers(selfTimes(rep.Spans, replayRoot), rep.Spans, legs)
	rep.set("spectral.searches", float64(steps1.count-steps0.count), "count")
	rep.set("spectral.steps", steps1.sum-steps0.sum, "count")
	rep.set("rescache.hits", float64(p.cache.Hits), "count")
	rep.set("rescache.misses", float64(p.cache.Misses), "count")
	rep.set("rescache.coalesced", float64(p.cache.Coalesced), "count")
	rep.set("rescache.evictions", float64(p.cache.Evictions), "count")
	rep.set("server.rejected", float64(p.rejected), "count")
	rep.set("unaccounted_s", self["pass"].Seconds(), "s")
	rep.set("go.alloc_mb", alloc[0], "MB")
	rep.set("go.gc_cycles", gcs[0], "count")
	rep.set("trace.overhead_ratio", walls[1]/walls[0], "ratio")
	return nil
}

// missP50 is the median latency of the misses of one pass, in ms.
func missP50(p servePass) float64 {
	var ls []float64
	for _, s := range p.samples {
		if s.err == nil && s.status == http.StatusOK && s.outcome == "miss" {
			ls = append(ls, ms(s.latency()))
		}
	}
	return median(ls)
}
