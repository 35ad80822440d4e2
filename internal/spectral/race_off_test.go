//go:build !race

package spectral

// raceEnabled reports whether the race detector is compiled in. The
// exhaustive fast-path cross-validation skips under -race: it pins step
// accounting, not memory safety, and instrumented DFS runs are an order of
// magnitude slower (TestClassifyConcurrent covers the concurrency story).
// TestClassifyAllocFree skips too: under -race sync.Pool drops pooled items
// at random, so a steady state without allocations cannot hold.
const raceEnabled = false
