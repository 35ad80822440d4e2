//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in.
// TestPrepareNodeAllocs skips under -race: it pins an allocation count, not
// memory safety, and the instrumented build may move values to the heap.
const raceEnabled = false
