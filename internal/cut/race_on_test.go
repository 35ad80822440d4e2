//go:build race

package cut

const raceEnabled = true
