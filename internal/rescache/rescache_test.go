package rescache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func keyOf(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[2] = byte(i >> 16)
	return k
}

func resOf(i int) *Result {
	return &Result{
		Report:        []byte(fmt.Sprintf(`{"rounds":%d}`, i)),
		Bristol:       []byte(fmt.Sprintf("1 3\n2 1 1\n1 1\n\n2 1 0 1 %d AND\n", i)),
		NetJSON:       []byte(fmt.Sprintf(`{"inputs":%d}`, i)),
		ANDBefore:     i + 1,
		ANDAfter:      i,
		ANDDepthAfter: 1,
		Rounds:        1,
	}
}

func TestPutGetPromotes(t *testing.T) {
	c := New(64, 1<<20)
	k := keyOf(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, resOf(1))
	got, ok := c.Get(k)
	if !ok || string(got.Report) != `{"rounds":1}` {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	// Replacing in place updates bytes, not entries.
	c.Put(k, resOf(2))
	if st := c.Stats(); st.Entries != 1 || st.Puts != 2 {
		t.Fatalf("after replace: %+v", st)
	}
	if got, _ := c.Get(k); string(got.Report) != `{"rounds":2}` {
		t.Fatalf("replace did not take: %s", got.Report)
	}
}

// TestEntryBoundEviction: keys land in one shard; pushing past the
// per-shard entry budget evicts the least recently used, and a Get refresh
// protects its entry.
func TestEntryBoundEviction(t *testing.T) {
	c := New(4*numShards, 1<<30) // 4 entries per shard
	shardKey := func(i int) Key {
		k := keyOf(i)
		k[0] = 0 // all in shard 0
		k[3] = byte(i)
		return k
	}
	for i := 0; i < 4; i++ {
		c.Put(shardKey(i), resOf(i))
	}
	// Refresh key 0 so key 1 is now the LRU tail.
	if _, ok := c.Get(shardKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Put(shardKey(4), resOf(4))
	if _, ok := c.Get(shardKey(1)); ok {
		t.Fatal("LRU tail survived past the entry budget")
	}
	if _, ok := c.Get(shardKey(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestByteBoundEviction: the byte budget evicts independently of the entry
// budget, and a single result larger than a shard's budget is not cached.
func TestByteBoundEviction(t *testing.T) {
	c := New(1<<20, 1024*numShards) // 1 KiB per shard
	big := &Result{Report: []byte(`{}`), Bristol: bytes.Repeat([]byte("x"), 600)}
	k0, k1 := keyOf(0), keyOf(0)
	k1[3] = 1
	c.Put(k0, big)
	c.Put(k1, big) // 2×(600+2+64) > 1024 → k0 evicted
	if _, ok := c.Get(k0); ok {
		t.Fatal("byte budget did not evict")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("newest entry evicted instead of oldest")
	}

	huge := &Result{Report: []byte(`{}`), Bristol: bytes.Repeat([]byte("x"), 2048)}
	kh := keyOf(7)
	c.Put(kh, huge)
	if _, ok := c.Get(kh); ok {
		t.Fatal("oversize result was cached")
	}
}

// TestDoCoalesces: a herd of callers on one key runs compute exactly once;
// one caller reports Miss, the rest Hit or Coalesced, all get the same
// result object.
func TestDoCoalesces(t *testing.T) {
	c := New(64, 1<<20)
	var computes atomic.Int32
	gate := make(chan struct{})
	const herd = 16
	var wg sync.WaitGroup
	outcomes := make([]Outcome, herd)
	results := make([]*Result, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, out, err := c.Do(context.Background(), keyOf(1), func() (*Result, bool, error) {
				<-gate
				computes.Add(1)
				return resOf(42), true, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			outcomes[i], results[i] = out, r
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the herd pile onto the flight
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	misses := 0
	for i, out := range outcomes {
		if out == Miss {
			misses++
		}
		if string(results[i].Report) != string(results[0].Report) {
			t.Fatalf("caller %d got a different result", i)
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers computed, want 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != herd-1 {
		t.Fatalf("stats after herd: %+v", st)
	}
}

// TestDoErrorPropagates: a leader failure (not its own cancellation) is the
// herd's failure — followers do not serialize through repeated computes.
func TestDoErrorPropagates(t *testing.T) {
	c := New(64, 1<<20)
	boom := errors.New("queue full")
	var computes atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), keyOf(2), func() (*Result, bool, error) {
				<-gate
				computes.Add(1)
				return nil, false, boom
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d error = %v, want boom", i, err)
		}
	}
	if _, ok := c.Get(keyOf(2)); ok {
		t.Fatal("failed compute was cached")
	}
}

// TestDoLeaderCanceledFollowerRetries: when the leader dies of its own
// context, a follower with a live context takes over as the new leader
// instead of inheriting the cancellation.
func TestDoLeaderCanceledFollowerRetries(t *testing.T) {
	c := New(64, 1<<20)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var order atomic.Int32

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(leaderCtx, keyOf(3), func() (*Result, bool, error) {
			close(started)
			<-leaderCtx.Done()
			order.Add(1)
			return nil, false, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader error = %v, want canceled", err)
		}
	}()

	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, out, err := c.Do(context.Background(), keyOf(3), func() (*Result, bool, error) {
			return resOf(9), true, nil
		})
		if err != nil || string(r.Report) != `{"rounds":9}` {
			t.Errorf("follower: %v, %v", r, err)
		}
		if out != Miss {
			t.Errorf("follower outcome = %v, want Miss (took over as leader)", out)
		}
	}()
	time.Sleep(20 * time.Millisecond) // follower is parked on the flight
	cancelLeader()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never recovered from the canceled leader")
	}
	wg.Wait()
}

// TestDoFollowerOwnDeadline: a parked follower honors its own deadline even
// while the leader keeps computing.
func TestDoFollowerOwnDeadline(t *testing.T) {
	c := New(64, 1<<20)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), keyOf(4), func() (*Result, bool, error) {
			close(started)
			<-release
			return resOf(1), true, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, keyOf(4), func() (*Result, bool, error) {
		t.Error("follower must not compute")
		return nil, false, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower error = %v, want deadline exceeded", err)
	}
	close(release)
	wg.Wait()
}

// TestDoStoreFalseNotCached: compute can deliver a result to the herd while
// declining to cache it (degraded runs).
func TestDoStoreFalseNotCached(t *testing.T) {
	c := New(64, 1<<20)
	r, out, err := c.Do(context.Background(), keyOf(5), func() (*Result, bool, error) {
		return resOf(1), false, nil
	})
	if err != nil || out != Miss || r == nil {
		t.Fatalf("Do = %v, %v, %v", r, out, err)
	}
	if _, ok := c.Get(keyOf(5)); ok {
		t.Fatal("store=false result was cached")
	}
}

// TestDoPanicUnblocksFollowers: a panicking compute must not strand parked
// followers; the panic still reaches the leader's stack.
func TestDoPanicUnblocksFollowers(t *testing.T) {
	c := New(64, 1<<20)
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader")
			}
		}()
		c.Do(context.Background(), keyOf(6), func() (*Result, bool, error) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			panic("boom")
		})
	}()
	<-started
	_, _, err := c.Do(context.Background(), keyOf(6), func() (*Result, bool, error) {
		return resOf(1), true, nil
	})
	// The follower either inherits the flight error or retries and computes.
	if err != nil && err.Error() != "rescache: compute panicked" {
		t.Fatalf("follower error = %v", err)
	}
	wg.Wait()
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotName)
	c := New(64, 1<<20)
	for i := 0; i < 10; i++ {
		c.Put(keyOf(i), resOf(i))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	c2 := New(64, 1<<20)
	rep, err := c2.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 10 || rep.Quarantined != 0 || rep.Truncated {
		t.Fatalf("load report: %+v", rep)
	}
	for i := 0; i < 10; i++ {
		got, ok := c2.Get(keyOf(i))
		if !ok {
			t.Fatalf("entry %d missing after reload", i)
		}
		want := resOf(i)
		if !bytes.Equal(got.Report, want.Report) || !bytes.Equal(got.Bristol, want.Bristol) ||
			!bytes.Equal(got.NetJSON, want.NetJSON) || got.ANDAfter != want.ANDAfter ||
			got.ANDBefore != want.ANDBefore || got.ANDDepthAfter != want.ANDDepthAfter ||
			got.Rounds != want.Rounds {
			t.Fatalf("entry %d differs after reload: %+v vs %+v", i, got, want)
		}
	}
}

func TestLoadMissingFileIsCold(t *testing.T) {
	c := New(64, 1<<20)
	rep, err := c.LoadFile(filepath.Join(t.TempDir(), "absent.snap"))
	if err != nil || rep.Loaded != 0 {
		t.Fatalf("missing file: %+v, %v", rep, err)
	}
}

// TestLoadQuarantinesCorruptRecord: a flipped byte in one record loses that
// record and nothing else.
func TestLoadQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotName)
	c := New(64, 1<<20)
	for i := 0; i < 5; i++ {
		c.Put(keyOf(i), resOf(i))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerLen+8+16] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New(64, 1<<20)
	rep, err := c2.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 4 || rep.Quarantined != 1 {
		t.Fatalf("load report after corruption: %+v", rep)
	}
}

// TestLoadTruncatedTail: a torn tail keeps every record before it.
func TestLoadTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotName)
	c := New(64, 1<<20)
	for i := 0; i < 5; i++ {
		c.Put(keyOf(i), resOf(i))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := New(64, 1<<20)
	rep, err := c2.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 4 || !rep.Truncated {
		t.Fatalf("load report after truncation: %+v", rep)
	}
}

func TestLoadRejectsBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(path, []byte("not a snapshot at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(64, 1<<20)
	if _, err := c.LoadFile(path); !errors.Is(err, ErrUnreadable) {
		t.Fatalf("bad header error = %v, want ErrUnreadable", err)
	}
}

func TestRegisterMetrics(t *testing.T) {
	c := New(64, 1<<20)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"mcserved_cache_hits_total", "mcserved_cache_misses_total",
		"mcserved_cache_coalesced_total", "mcserved_cache_evictions_total",
		"mcserved_cache_entries", "mcserved_cache_bytes", "mcserved_cache_hit_rate",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("scrape missing %s", name)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("NaN")) {
		t.Fatalf("scrape contains NaN before any traffic:\n%s", out)
	}

	c.Do(context.Background(), keyOf(1), func() (*Result, bool, error) { return resOf(1), true, nil })
	c.Do(context.Background(), keyOf(1), func() (*Result, bool, error) { return resOf(1), true, nil })
	buf.Reset()
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("mcserved_cache_hit_rate 0.5")) {
		t.Fatalf("hit rate not 0.5 after one miss + one hit:\n%s", buf.String())
	}
}
