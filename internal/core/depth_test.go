package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/sim"
	"repro/internal/xag"
)

// TestDepthModelReducesAndDepth is the ISSUE acceptance check at the engine
// level: the depth model strictly reduces the multiplicative depth of a
// naive ripple-carry adder without blowing up the AND count (≤ 10% over the
// depth-run's starting point), and the result stays equivalent.
func TestDepthModelReducesAndDepth(t *testing.T) {
	n := rippleAdder(16)
	before := n.CountGates()
	res := MinimizeMC(n, Options{Cost: cost.Depth()})
	after := res.Final()
	if after.AndDepth >= before.AndDepth {
		t.Fatalf("depth model did not reduce AND depth: %d -> %d", before.AndDepth, after.AndDepth)
	}
	if limit := before.And + before.And/10; after.And > limit {
		t.Fatalf("depth model grew AND count past 10%%: %d -> %d", before.And, after.And)
	}
	equalOnRandom(t, n, res.Network, 8, 61)
}

// TestDepthModelNeverWorseOnRandom: depth runs must never report a deeper
// network than they started with, and must stay equivalent.
func TestDepthModelNeverWorseOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 4; trial++ {
		n := randomNetwork(rng, 7, 120)
		before := n.CountGates()
		res := MinimizeMC(n, Options{Cost: cost.Depth()})
		if after := res.Final(); after.AndDepth > before.AndDepth {
			t.Fatalf("trial %d: AND depth grew %d -> %d", trial, before.AndDepth, after.AndDepth)
		}
		equalOnRandom(t, n, res.Network, 8, 62)
	}
}

// TestDepthModelParallelDeterminism extends the engine's determinism
// contract to the depth model: bit-identical committed networks for every
// worker count, even though depth ranking reorders cut pruning.
func TestDepthModelParallelDeterminism(t *testing.T) {
	nets := map[string]func() *xag.Network{
		"adder-16":  func() *xag.Network { return rippleAdder(16) },
		"md5-style": func() *xag.Network { return md5Style(8) },
	}
	for name, build := range nets {
		ref := MinimizeMC(build(), Options{Workers: 1, Cost: cost.Depth()})
		refB := bristol(t, ref.Network)
		for _, workers := range []int{2, 8} {
			got := MinimizeMC(build(), Options{Workers: workers, Cost: cost.Depth()})
			if !bytes.Equal(bristol(t, got.Network), refB) {
				t.Fatalf("%s: workers=%d depth-model network differs from sequential run", name, workers)
			}
		}
	}
}

// TestDepthModelStaleStrashHitDeclined: on this control block an earlier
// commit substitutes a node that a later replacement's structural hashing
// hits, so the realized cone resolves through the substitute and reaches a
// primary input outside the cut. The commit must decline that rewrite
// without counting a recovered panic, and the result must stay equivalent.
func TestDepthModelStaleStrashHitDeclined(t *testing.T) {
	build := func() *xag.Network { return bench.ControlLogic("mix3258776528980504739", 7, 1, 4) }
	var db *mcdb.DB
	for _, workers := range []int{1, 2} {
		in := build()
		res := MinimizeMC(in, Options{Workers: workers, Cost: cost.Depth(), DB: db})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Degraded.RecoveredPanics != 0 {
			t.Errorf("workers=%d: %d recovered panics, want 0", workers, res.Degraded.RecoveredPanics)
		}
		if err := sim.Equal(in, res.Network, 8, 1); err != nil {
			t.Fatalf("workers=%d: optimized network not equivalent: %v", workers, err)
		}
		db = res.DB
	}
}

// TestNilCostDefaultsToMC: a zero Options value must behave exactly like an
// explicit MC model — the compatibility contract of the Cost refactor.
func TestNilCostDefaultsToMC(t *testing.T) {
	ref := MinimizeMC(rippleAdder(12), Options{Cost: cost.MC()})
	got := MinimizeMC(rippleAdder(12), Options{})
	if !bytes.Equal(bristol(t, got.Network), bristol(t, ref.Network)) {
		t.Fatalf("nil-Cost run differs from explicit MC run")
	}
}

// TestMinimizeDropsWorseningRound: under the depth model sha-256-round's
// third round adds 11 ANDs at the same AND depth. Minimize stops there and
// returns that round's input, 503 ANDs at depth 46, not its output.
func TestMinimizeDropsWorseningRound(t *testing.T) {
	res := MinimizeMC(bench.SHA256Round(), Options{Workers: 2, Cost: cost.Depth()})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if !cost.Depth().Improved(last.After, last.Before) {
		t.Fatalf("final round %+v -> %+v did not make the cost worse; nothing to roll back", last.Before, last.After)
	}
	got := res.Network.CountGates()
	if got.And != 503 || got.AndDepth != 46 {
		t.Fatalf("returned %d ANDs at AND depth %d, want 503 at 46", got.And, got.AndDepth)
	}
	if got != last.Before || res.Final() != got {
		t.Fatalf("returned counts %+v, Final %+v, want the final round's input %+v", got, res.Final(), last.Before)
	}
}
