package mcdb

import (
	"sync"

	"repro/internal/spectral"
	"repro/internal/tt"
)

// The classification cache is the concurrency backbone of the parallel
// rewriting engine: every worker classifies its cut functions against it,
// and the cache persists for the lifetime of the database, so later rounds
// (and later benchmarks sharing the DB) turn classification — the dominant
// cost of a round — into a map hit.
//
// The cache is sharded and mutex-striped: a key hashes to one of
// classShardCount shards, each guarded by its own RWMutex, so concurrent
// workers only contend when their functions land in the same shard. Two
// workers racing to classify the same function both compute it (the result
// is deterministic, so either copy is valid); the first insert wins and the
// loser adopts the winner's value, which keeps every reader of a given key
// observing one canonical Result.

// classShardCount is the number of mutex stripes. 64 keeps contention
// negligible for any plausible worker count while costing only a few kB.
const classShardCount = 64

// classVal is a spectral.Result packed into 24 bytes instead of the
// struct's 112, so a cache that holds every function a long-lived database
// has classified stays small. Every field round-trips exactly:
//
//	repr   Repr.Bits
//	tr     bits 0–35   InputMask[i] at bit 6i (a mask over n ≤ 6 variables)
//	       bits 36–41  InputCompl[i] at bit 36+i
//	       bits 42–47  OutputMask
//	       bit  48     OutputCompl
//	       bit  49     Complete
//	       bits 50–52  N, shared by Repr and Tr (Classify sets both to f.N)
//	steps  Steps
type classVal struct {
	repr  uint64
	tr    uint64
	steps int64
}

func packClass(r spectral.Result) classVal {
	w := uint64(r.Repr.N) << 50
	for i := 0; i < tt.MaxVars; i++ {
		w |= uint64(r.Tr.InputMask[i]) << (6 * i)
		if r.Tr.InputCompl[i] {
			w |= 1 << (36 + i)
		}
	}
	w |= uint64(r.Tr.OutputMask) << 42
	if r.Tr.OutputCompl {
		w |= 1 << 48
	}
	if r.Complete {
		w |= 1 << 49
	}
	return classVal{repr: r.Repr.Bits, tr: w, steps: int64(r.Steps)}
}

func (v classVal) result() spectral.Result {
	n := int(v.tr >> 50 & 7)
	r := spectral.Result{
		Repr:     tt.T{Bits: v.repr, N: n},
		Complete: v.tr>>49&1 == 1,
		Steps:    int(v.steps),
	}
	r.Tr.N = n
	for i := 0; i < tt.MaxVars; i++ {
		r.Tr.InputMask[i] = uint(v.tr >> (6 * i) & 63)
		r.Tr.InputCompl[i] = v.tr>>(36+i)&1 == 1
	}
	r.Tr.OutputMask = uint(v.tr >> 42 & 63)
	r.Tr.OutputCompl = v.tr>>48&1 == 1
	return r
}

type classShard struct {
	mu sync.RWMutex
	m  map[tt.T]classVal
}

type classCache struct {
	shards [classShardCount]classShard
}

func newClassCache() *classCache {
	c := &classCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[tt.T]classVal)
	}
	return c
}

// shardOf mixes the truth-table bits so consecutive functions spread across
// stripes (Fibonacci hashing on the raw bits plus the variable count).
func (c *classCache) shardOf(f tt.T) *classShard {
	h := (f.Bits ^ uint64(f.N)<<57) * 0x9e3779b97f4a7c15
	return &c.shards[h>>58&(classShardCount-1)]
}

func (c *classCache) get(f tt.T) (spectral.Result, bool) {
	s := c.shardOf(f)
	s.mu.RLock()
	v, ok := s.m[f]
	s.mu.RUnlock()
	if !ok {
		return spectral.Result{}, false
	}
	return v.result(), true
}

// put inserts res under f unless another goroutine got there first, and
// returns the canonical value plus whether this call was the one that
// inserted it.
func (c *classCache) put(f tt.T, res spectral.Result) (spectral.Result, bool) {
	s := c.shardOf(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[f]; ok {
		return prev.result(), false
	}
	s.m[f] = packClass(res)
	return res, true
}

func (c *classCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
