package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/mcdb"
)

// TestCacheHitByteIdentity is the tentpole acceptance check: a repeated
// identical POST /v1/optimize is served from the cache — byte-identical
// body, X-MC-Cache: hit, the hit counter increments, and no new engine run
// or rewriting round happens.
func TestCacheHitByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, nil)
	circuit := benchBristol(t, "decoder")

	// Use the JSON envelope so no Deprecation header muddies the comparison.
	resp1, body1 := postJSON(t, ts, "/v1/optimize", OptimizeRequest{Bristol: circuit})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-MC-Cache"); got != "miss" {
		t.Fatalf("first request X-MC-Cache = %q, want miss", got)
	}
	runsAfterFirst := metricValue(t, s, "mcc_runs_total")
	roundsAfterFirst := metricValue(t, s, "mcc_rounds_total")

	resp2, body2 := postJSON(t, ts, "/v1/optimize", OptimizeRequest{Bristol: circuit})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-MC-Cache"); got != "hit" {
		t.Fatalf("second request X-MC-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit body differs from miss body:\n%s\nvs\n%s", body1, body2)
	}
	if got := metricValue(t, s, "mcserved_cache_hits_total"); got != 1 {
		t.Errorf("mcserved_cache_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, s, "mcserved_cache_misses_total"); got < 1 {
		t.Errorf("mcserved_cache_misses_total = %v, want >= 1", got)
	}
	if got := metricValue(t, s, "mcc_runs_total"); got != runsAfterFirst {
		t.Errorf("cache hit started a new engine run: mcc_runs_total %v -> %v", runsAfterFirst, got)
	}
	if got := metricValue(t, s, "mcc_rounds_total"); got != roundsAfterFirst {
		t.Errorf("cache hit executed engine rounds: mcc_rounds_total %v -> %v", roundsAfterFirst, got)
	}
	if got := metricValue(t, s, "mcserved_cache_hit_rate"); got <= 0 || got > 1 {
		t.Errorf("mcserved_cache_hit_rate = %v, want in (0, 1]", got)
	}

	// Text responses are served from the same frozen result.
	respT, bodyT := postBristol(t, ts, circuit, "", map[string]string{"Accept": "text/plain"})
	if respT.StatusCode != http.StatusOK {
		t.Fatalf("text request: %d: %s", respT.StatusCode, bodyT)
	}
	if got := respT.Header.Get("X-MC-Cache"); got != "hit" {
		t.Errorf("text request X-MC-Cache = %q, want hit", got)
	}
	var jr struct {
		Bristol string `json:"bristol"`
	}
	if err := json.Unmarshal(body1, &jr); err != nil {
		t.Fatal(err)
	}
	if string(bodyT) != jr.Bristol {
		t.Error("text/plain body differs from the bristol field of the JSON body")
	}
}

// TestCacheKeyRespectsOptions checks that requests differing in an
// engine-visible option do not share a cache entry, while options that
// cannot change the output (workers, deadline, sequential_commit) do.
func TestCacheKeyRespectsOptions(t *testing.T) {
	s, ts := newTestServer(t, nil)
	circuit := benchBristol(t, "decoder")

	post := func(o RequestOptions) string {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/optimize", OptimizeRequest{Bristol: circuit, Options: o})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-MC-Cache")
	}

	if got := post(RequestOptions{MaxRounds: 1}); got != "miss" {
		t.Fatalf("rounds=1: X-MC-Cache = %q, want miss", got)
	}
	if got := post(RequestOptions{MaxRounds: 2}); got != "miss" {
		t.Errorf("rounds=2 shares the rounds=1 entry: X-MC-Cache = %q, want miss", got)
	}
	// workers and deadline are excluded from the key: the engine's output is
	// byte-identical across worker counts, and the deadline only bounds
	// latency.
	if got := post(RequestOptions{MaxRounds: 2, Workers: 3, DeadlineMS: 60000}); got != "hit" {
		t.Errorf("workers/deadline variant missed: X-MC-Cache = %q, want hit", got)
	}
	// sequential_commit is a deprecated no-op, so it is not part of the key
	// either.
	if got := post(RequestOptions{MaxRounds: 2, SequentialCommit: true}); got != "hit" {
		t.Errorf("sequential_commit variant missed: X-MC-Cache = %q, want hit", got)
	}
	if got := metricValue(t, s, "mcserved_cache_misses_total"); got != 2 {
		t.Errorf("mcserved_cache_misses_total = %v, want 2", got)
	}
}

// TestCacheDisabled proves CacheEntries < 0 switches the cache off: every
// request computes and reports a miss.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.CacheEntries = -1 })
	if s.Cache() != nil {
		t.Fatal("cache present despite CacheEntries < 0")
	}
	circuit := benchBristol(t, "decoder")
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts, "/v1/optimize", OptimizeRequest{Bristol: circuit})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-MC-Cache"); got != "miss" {
			t.Errorf("request %d: X-MC-Cache = %q, want miss", i, got)
		}
	}
	if got := metricValue(t, s, "mcc_runs_total"); got != 2 {
		t.Errorf("mcc_runs_total = %v, want 2 (no caching)", got)
	}
}

// TestBatchMatchesSyncBytes submits a two-item batch and checks each item's
// result carries exactly the bytes the equivalent sync request returns, and
// that a repeated batch is served entirely from cache.
func TestBatchMatchesSyncBytes(t *testing.T) {
	_, ts := newTestServer(t, nil)
	dec := benchBristol(t, "decoder")
	add := benchBristol(t, "adder-32")

	syncBody := func(env OptimizeRequest) []byte {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/optimize", env)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sync optimize: %d: %s", resp.StatusCode, body)
		}
		return body
	}
	envs := []OptimizeRequest{
		{Bristol: dec},
		{Bristol: add, Options: RequestOptions{MaxRounds: 1}},
	}
	want := [][]byte{syncBody(envs[0]), syncBody(envs[1])}

	items := make([]json.RawMessage, len(envs))
	for i, env := range envs {
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = b
	}
	resp, body := postJSON(t, ts, "/v1/optimize/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch response: %v\n%s", err, body)
	}
	if len(br.Items) != len(envs) {
		t.Fatalf("batch returned %d items, want %d", len(br.Items), len(envs))
	}
	for i, item := range br.Items {
		if item.Status != http.StatusOK || item.Error != nil {
			t.Fatalf("item %d: status %d, error %+v", i, item.Status, item.Error)
		}
		if item.Cache != "hit" {
			t.Errorf("item %d: cache %q, want hit (sync requests warmed it)", i, item.Cache)
		}
		// The sync body ends in the newline the handler writes; the batch
		// wire format embeds the same bytes as a JSON value without it.
		if got := append(bytes.Clone(item.Result), '\n'); !bytes.Equal(got, want[i]) {
			t.Errorf("item %d result differs from sync body:\n%s\nvs\n%s", i, item.Result, want[i])
		}
	}
}

// TestJobMatchesSyncBytes runs the same envelope sync and as an async job
// and checks the polled result carries the exact sync body bytes.
func TestJobMatchesSyncBytes(t *testing.T) {
	_, ts := newTestServer(t, nil)
	env := OptimizeRequest{Bristol: benchBristol(t, "decoder")}

	respS, syncBody := postJSON(t, ts, "/v1/optimize", env)
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("sync optimize: %d: %s", respS.StatusCode, syncBody)
	}

	resp, body := postJSON(t, ts, "/v1/jobs", env)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: %d: %s", resp.StatusCode, body)
	}
	var sub JobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	jr := pollJob(t, ts, sub.Job.ID, JobDone)
	if jr.Error != nil {
		t.Fatalf("job failed: %+v", jr.Error)
	}
	if jr.Job.Cache != "hit" {
		t.Errorf("job cache %q, want hit (sync request warmed it)", jr.Job.Cache)
	}
	if got := append(bytes.Clone(jr.Result), '\n'); !bytes.Equal(got, syncBody) {
		t.Errorf("job result differs from sync body:\n%s\nvs\n%s", jr.Result, syncBody)
	}
}

// TestCachePersistsAcrossRestart drives the durability path end to end:
// admin snapshot persists the cache next to the store, and a second server
// over the same directory serves the same request as a hit without a single
// engine run.
func TestCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	circuit := benchBristol(t, "decoder")
	env := OptimizeRequest{Bristol: circuit}

	db1 := mcdb.New(mcdb.Options{})
	store1, _, err := mcdb.OpenStore(dir, db1)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, func(c *Config) {
		c.DB = db1
		c.Store = store1
	})
	resp, body1 := postJSON(t, ts1, "/v1/optimize", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body1)
	}

	// Admin snapshot persists both the store and the result cache.
	resp, body := postJSON(t, ts1, "/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d: %s", resp.StatusCode, body)
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheEntries != 1 {
		t.Fatalf("snapshot persisted %d cache entries, want 1", snap.CacheEntries)
	}
	if _, err := os.Stat(s1.CacheSnapshotPath()); err != nil {
		t.Fatalf("cache snapshot file missing: %v", err)
	}
	ts1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh server over the same directory loads the cache and
	// serves the same request without computing.
	db2 := mcdb.New(mcdb.Options{})
	store2, _, err := mcdb.OpenStore(dir, db2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	s2, ts2 := newTestServer(t, func(c *Config) {
		c.DB = db2
		c.Store = store2
	})
	rep, err := s2.LoadCache()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || rep.Quarantined != 0 {
		t.Fatalf("cache load = %+v, want 1 loaded clean", rep)
	}

	resp, body2 := postJSON(t, ts2, "/v1/optimize", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize after restart: %d: %s", resp.StatusCode, body2)
	}
	if got := resp.Header.Get("X-MC-Cache"); got != "hit" {
		t.Fatalf("request after restart: X-MC-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("body after restart differs:\n%s\nvs\n%s", body1, body2)
	}
	// The engine never ran on the restarted server: no miss was recorded
	// (and mcc_* counters were never even registered).
	if got := metricValue(t, s2, "mcserved_cache_misses_total"); got != 0 {
		t.Errorf("restarted server recorded %v cache misses for a persisted result", got)
	}
	if got := metricValue(t, s2, "mcserved_cache_hits_total"); got != 1 {
		t.Errorf("mcserved_cache_hits_total = %v after restart, want 1", got)
	}
}
