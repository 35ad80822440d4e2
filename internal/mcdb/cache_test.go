package mcdb

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/spectral"
	"repro/internal/tt"
)

// TestClassCacheConcurrentLookups hammers one database from many goroutines
// with overlapping function sets (run under -race in CI). Every goroutine
// must observe the same entry for the same function, and the totals must
// balance: each distinct class-cache key is classified exactly once.
func TestClassCacheConcurrentLookups(t *testing.T) {
	db := New(Options{SearchBudget: 200_000})
	const goroutines = 8
	const perG = 60

	// A shared pool of functions, so goroutines race on the same keys.
	rng := rand.New(rand.NewSource(61))
	fns := make([]tt.T, 40)
	for i := range fns {
		fns[i] = tt.New(rng.Uint64(), 1+rng.Intn(5))
	}

	type obs struct {
		f  tt.T
		mc int
	}
	results := make([][]obs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perG; i++ {
				f := fns[rng.Intn(len(fns))]
				e, res := db.Lookup(f)
				if !res.Complete {
					continue
				}
				if got := res.Tr.Apply(res.Repr); got != f {
					t.Errorf("g%d: transform does not rebuild %s", g, f)
					return
				}
				results[g] = append(results[g], obs{f, e.MC()})
			}
		}(g)
	}
	wg.Wait()

	mcOf := map[tt.T]int{}
	for g := range results {
		for _, o := range results[g] {
			if prev, ok := mcOf[o.f]; ok && prev != o.mc {
				t.Fatalf("function %s observed with MC %d and %d", o.f, prev, o.mc)
			}
			mcOf[o.f] = o.mc
		}
	}

	s := db.Stats()
	// Synthesis classifies internally too (Davio recursion), so the exact
	// call count is not observable from the outside; the invariants are that
	// a lost insertion race still counts as classified (never below the
	// number of cached keys) and that overlapping lookups hit the cache.
	if s.Classified < db.classes.len() {
		t.Fatalf("Classified = %d < %d cached keys", s.Classified, db.classes.len())
	}
	if s.ClassCacheHits == 0 {
		t.Fatalf("no cache hits across %d overlapping lookups", goroutines*perG)
	}
}

// TestClassCacheFirstInsertWins: when two goroutines race to classify the
// same function, the loser adopts the winner's result, so later readers see
// a single stable value.
func TestClassCacheFirstInsertWins(t *testing.T) {
	c := newClassCache()
	k := tt.T{Bits: 0xe8, N: 3}
	a := spectral.Result{Complete: true}
	b := spectral.Result{Complete: false}
	if got, inserted := c.put(k, a); !inserted || got.Complete != a.Complete {
		t.Fatalf("first put rejected: %+v %v", got, inserted)
	}
	if got, inserted := c.put(k, b); inserted || got.Complete != a.Complete {
		t.Fatalf("second put displaced the first: %+v %v", got, inserted)
	}
	if got, ok := c.get(k); !ok || got.Complete != a.Complete {
		t.Fatalf("get after racing puts: %+v %v", got, ok)
	}
}

// TestClassCacheSharding: keys spread across shards (no degenerate
// single-shard hashing), and len sums all shards.
func TestClassCacheSharding(t *testing.T) {
	c := newClassCache()
	rng := rand.New(rand.NewSource(62))
	const n = 4096
	for i := 0; i < n; i++ {
		c.put(tt.T{Bits: rng.Uint64(), N: 1 + rng.Intn(6)}, spectral.Result{})
	}
	if got := c.len(); got != n {
		// Collisions of random 64-bit keys are negligible at this scale.
		t.Fatalf("len = %d, want %d", got, n)
	}
	used := 0
	for i := range c.shards {
		if len(c.shards[i].m) > 0 {
			used++
		}
	}
	if used < classShardCount/2 {
		t.Fatalf("only %d/%d shards used — bad shard hash", used, classShardCount)
	}
}

// TestConcurrentSaveDuringLookups: persistence can run while lookups are in
// flight (both take db.mu; the race detector checks the schedule).
func TestConcurrentSaveDuringLookups(t *testing.T) {
	db := New(Options{SearchBudget: 100_000})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 30; i++ {
				db.Lookup(tt.New(rng.Uint64(), 1+rng.Intn(5)))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var sink discard
			if err := db.Save(&sink); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			db.NumEntries()
		}
	}()
	wg.Wait()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestClassCacheRoundTrip: a packed class-cache value gives back every
// spectral.Result field exactly, for n = 0…6, complete and incomplete, with
// Steps up to spectral.DefaultLimit.
func TestClassCacheRoundTrip(t *testing.T) {
	c := newClassCache()
	var next uint64
	check := func(what string, res spectral.Result) {
		t.Helper()
		if got := packClass(res).result(); got != res {
			t.Fatalf("%s: packed round trip\n got %+v\nwant %+v", what, got, res)
		}
		// Through the cache itself, under a fresh key: put returns the
		// canonical value, get unpacks it, and a second put adopts it.
		next++
		k := tt.T{Bits: next, N: res.Repr.N}
		if got, _ := c.put(k, res); got != res {
			t.Fatalf("%s: put returned %+v", what, got)
		}
		if got, ok := c.get(k); !ok || got != res {
			t.Fatalf("%s: get returned %+v, %v", what, got, ok)
		}
		if got, inserted := c.put(k, spectral.Result{}); inserted || got != res {
			t.Fatalf("%s: second put returned %+v, %v", what, got, inserted)
		}
	}

	rng := rand.New(rand.NewSource(64))
	mask := func(n int) uint { return uint(rng.Intn(1 << uint(n))) }
	for n := 0; n <= tt.MaxVars; n++ {
		// Every field at random, plus the extremes: all-ones masks and
		// complements, zero and DefaultLimit steps.
		for trial := 0; trial < 200; trial++ {
			res := spectral.Result{
				Repr:     tt.New(rng.Uint64(), n),
				Complete: rng.Intn(2) == 0,
				Steps:    rng.Intn(spectral.DefaultLimit + 1),
			}
			res.Tr.N = n
			for i := 0; i < n; i++ {
				res.Tr.InputMask[i] = mask(n)
				res.Tr.InputCompl[i] = rng.Intn(2) == 0
			}
			res.Tr.OutputMask = mask(n)
			res.Tr.OutputCompl = rng.Intn(2) == 0
			switch trial {
			case 0:
				res.Steps = 0
			case 1:
				res.Steps = spectral.DefaultLimit
				for i := 0; i < n; i++ {
					res.Tr.InputMask[i] = 1<<uint(n) - 1
					res.Tr.InputCompl[i] = true
				}
				res.Tr.OutputMask = 1<<uint(n) - 1
				res.Tr.OutputCompl = true
				res.Complete = true
			}
			check("synthetic", res)
		}

		// Real classifications: exact tables (n ≤ 4), complete searches,
		// and searches truncated at a small limit and at DefaultLimit.
		// Non-affine functions of five or six variables almost never
		// complete at DefaultLimit; affine ones always do.
		fns := []tt.T{tt.New(rng.Uint64(), n), tt.New(rng.Uint64(), n), tt.New(rng.Uint64(), n)}
		if n >= 2 {
			fns = append(fns, tt.Var(0, n).And(tt.Var(1, n)), tt.Var(0, n).Xor(tt.Var(n-1, n)).Not())
		}
		var complete, incomplete bool
		for _, f := range fns {
			for _, limit := range []int{40, spectral.DefaultLimit} {
				res := spectral.Classify(f, limit)
				complete = complete || res.Complete
				incomplete = incomplete || !res.Complete
				check("classify", res)
			}
		}
		if n >= 5 && !incomplete {
			t.Fatalf("n=%d: no incomplete classification exercised", n)
		}
		if !complete {
			t.Fatalf("n=%d: no complete classification exercised", n)
		}
	}

	// End to end through a database: the value a cache hit returns is the
	// one the miss computed.
	db := New(Options{ClassifyLimit: 2000})
	for trial := 0; trial < 60; trial++ {
		f := tt.New(rng.Uint64(), 1+rng.Intn(tt.MaxVars))
		miss := db.Classify(f)
		if hit := db.Classify(f); hit != miss {
			t.Fatalf("%s: cache hit %+v, miss computed %+v", f, hit, miss)
		}
	}
	if s := db.Stats(); s.Incomplete == 0 {
		t.Fatalf("no incomplete classification exercised: %+v", s)
	}
}
