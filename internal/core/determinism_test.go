package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/xag"
)

// TestIncrementalDeterminismLarge is the regression gate for incremental
// rewriting on two reference circuits: for adder-64 and sha-256-round,
// every combination of cost model (mc, size, depth) and worker count (1, 4)
// must commit a Bristol serialization byte-identical to the full-recompute
// sequential reference, roundReference. One database is shared per
// circuit/model pair — warmth must not change results either.
func TestIncrementalDeterminismLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second matrix; run without -short")
	}
	nets := []struct {
		name  string
		build func() *xag.Network
	}{
		{"adder-64", func() *xag.Network { return bench.Adder(64) }},
		{"sha-256-round", func() *xag.Network { return bench.SHA256Round() }},
	}
	models := []struct {
		name  string
		model Cost
	}{
		{"mc", cost.MC()},
		{"size", cost.Size()},
		{"depth", cost.Depth()},
	}
	for _, n := range nets {
		for _, m := range models {
			t.Run(n.name+"/"+m.name, func(t *testing.T) {
				db := mcdb.New(mcdb.Options{})
				ref, refRounds, _ := roundReference(t, n.build(), Options{Workers: 1, Cost: m.model, DB: db})
				refB := bristol(t, ref)
				for _, workers := range []int{1, 4} {
					got := MinimizeMC(n.build(), Options{Workers: workers, Cost: m.model, DB: db})
					if got.Err != nil {
						t.Fatal(got.Err)
					}
					if !bytes.Equal(bristol(t, got.Network), refB) {
						t.Errorf("workers=%d: incremental network differs from full sequential reference", workers)
					}
					if len(got.Rounds) != refRounds {
						t.Errorf("workers=%d: incremental ran %d rounds, full ran %d",
							workers, len(got.Rounds), refRounds)
					}
				}
			})
		}
	}
}
