//go:build !race

package cut

// raceEnabled reports whether the race detector is compiled in.
// TestNodeCutsMatchReference compares fewer circuits under -race.
const raceEnabled = false
