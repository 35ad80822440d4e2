package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/xag"
)

// TestIncrementalMatchesFull is the incremental engine's core contract:
// Minimize with cross-round reuse commits a bit-identical network — same
// node ids, same Bristol serialization — as the full recomputation of
// roundReference, for every cost model and worker count.
func TestIncrementalMatchesFull(t *testing.T) {
	models := map[string]Cost{
		"mc":    cost.MC(),
		"size":  cost.Size(),
		"depth": cost.Depth(),
	}
	nets := map[string]func() *xag.Network{
		"adder-16":  func() *xag.Network { return rippleAdder(16) },
		"md5-style": func() *xag.Network { return md5Style(8) },
	}
	for name, build := range nets {
		for mName, model := range models {
			ref, refRounds, _ := roundReference(t, build(), Options{Workers: 1, Cost: model})
			refB := bristol(t, ref)
			for _, workers := range []int{1, 4} {
				got := MinimizeMC(build(), Options{Workers: workers, Cost: model})
				if !bytes.Equal(bristol(t, got.Network), refB) {
					t.Fatalf("%s/%s: incremental workers=%d network differs from full sequential run",
						name, mName, workers)
				}
				if len(got.Rounds) != refRounds {
					t.Fatalf("%s/%s: incremental ran %d rounds, full ran %d",
						name, mName, len(got.Rounds), refRounds)
				}
			}
		}
	}
}

// TestIncrementalMatchesFullRandom drives the same contract through random
// networks, whose irregular structure exercises renumbering, constant
// folding, and partial-reuse paths the structured circuits miss.
func TestIncrementalMatchesFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		seed := rng.Int63()
		build := func() *xag.Network {
			return randomNetwork(rand.New(rand.NewSource(seed)), 8, 150)
		}
		ref, _, _ := roundReference(t, build(), Options{Workers: 1})
		refB := bristol(t, ref)
		for _, workers := range []int{1, 4} {
			got := MinimizeMC(build(), Options{Workers: workers})
			if !bytes.Equal(bristol(t, got.Network), refB) {
				t.Fatalf("trial %d (seed %d): incremental workers=%d differs from full run",
					trial, seed, workers)
			}
		}
		// Functional sanity on top of byte identity.
		equalOnRandom(t, build(), ref, 8, seed)
	}
}

// TestIncrementalReuseRate: on an adder, every round classifies every gate
// (only cut lists are carried across rounds), and re-enumeration falls well
// below a full pass once the network goes quiet. An adder is a single carry
// chain, so every active round's replacements span the whole id range and
// their dead MFFC interiors invalidate most deep cuts above them — measured
// churn on this circuit is 60–85% in active rounds and <50% only in quiet
// ones (see DESIGN.md §10 for the analysis).
func TestIncrementalReuseRate(t *testing.T) {
	res := MinimizeMC(rippleAdder(64), Options{Workers: 4})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("expected at least 2 rounds, got %d", len(res.Rounds))
	}
	var reEnum, reGates int
	for i, r := range res.Rounds {
		t.Logf("round %d: gates=%d enumerated=%d classified=%d replacements=%d",
			i+1, r.Gates, r.Enumerated, r.Classified, r.Replacements)
		if r.Classified != r.Gates {
			t.Errorf("round %d classified %d of %d gates, want all", i+1, r.Classified, r.Gates)
		}
		if i == 0 {
			if r.Enumerated != r.Gates {
				t.Fatalf("round 1 must enumerate everything: enumerated=%d gates=%d",
					r.Enumerated, r.Gates)
			}
			continue
		}
		reEnum += r.Enumerated
		reGates += r.Gates
		if r.Enumerated > r.Gates {
			t.Errorf("round %d re-enumerated %d of %d gates", i+1, r.Enumerated, r.Gates)
		}
	}
	// Across all rounds after the first, a meaningful share of enumeration
	// must have been reused (not a full recompute every round).
	if 10*reEnum >= 9*reGates {
		t.Errorf("rounds >= 2 re-enumerated %d of %d gates, want < 90%%", reEnum, reGates)
	}
	// A quiet round — one following a round that committed no replacements —
	// must show deep enumeration reuse: nothing changed, so almost every cut
	// list carries over verbatim.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i-1].Replacements == 0 && 2*res.Rounds[i].Enumerated > res.Rounds[i].Gates {
			t.Errorf("quiet round %d re-enumerated %d of %d gates, want <= 50%%",
				i+1, res.Rounds[i].Enumerated, res.Rounds[i].Gates)
		}
	}
}

// TestRoundRecomputesEverything: Engine.Round keeps no seeds, so every
// round enumerates and classifies every gate. roundReference and mcperf's
// full-recompute rounds rely on this.
func TestRoundRecomputesEverything(t *testing.T) {
	eng := NewEngine(nil, Options{Workers: 2})
	net := rippleAdder(32).Cleanup()
	for round := 1; ; round++ {
		out, r, err := eng.Round(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		if r.Enumerated != r.Gates || r.Classified != r.Gates {
			t.Fatalf("round %d: enumerated=%d classified=%d, want both == gates=%d",
				round, r.Enumerated, r.Classified, r.Gates)
		}
		net = out
		if !eng.opts.Cost.Improved(r.Before, r.After) {
			if round < 2 {
				t.Fatalf("converged after %d round, want a later round to check", round)
			}
			return
		}
	}
}

// TestIncrementalWithVerifyRollback: a rolled-back round must invalidate
// the carried seeds; here Verify is simply on and passing, checking the
// two features compose and still commit the reference bytes (the rollback
// path itself is exercised by the fault-injection tests, which run with
// incremental defaults).
func TestIncrementalWithVerifyRollback(t *testing.T) {
	res := MinimizeMC(md5Style(8), Options{Workers: 2, Verify: true})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ref, _, _ := roundReference(t, md5Style(8), Options{Workers: 2})
	if !bytes.Equal(bristol(t, res.Network), bristol(t, ref)) {
		t.Fatal("verified run differs from the Engine.Round reference")
	}
}

// TestIncrementalDegradationMatchesRoundLoop: Minimize classifies every
// gate in every round, as a loop of Engine.Round does, so both report the
// same degradation counters. md5Style(8) skips incomplete classifications
// under both models, so the comparison is not vacuous. The two runs share a
// database: the counters replay deterministic verdicts, so the loop's warm
// cache changes only its speed.
func TestIncrementalDegradationMatchesRoundLoop(t *testing.T) {
	for _, m := range []struct {
		name  string
		model Cost
	}{{"mc", cost.MC()}, {"depth", cost.Depth()}} {
		opts := Options{Workers: 2, Cost: m.model, DB: mcdb.New(mcdb.Options{})}
		got := MinimizeMC(md5Style(8), opts)
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		_, _, want := roundReference(t, md5Style(8), opts)
		t.Logf("%s: Minimize %+v, Round loop %+v", m.name, got.Degraded, want)
		if want.IncompleteClassifications == 0 {
			t.Fatalf("%s: no incomplete classifications to compare", m.name)
		}
		if got.Degraded != want {
			t.Errorf("%s: Minimize degradation %+v, Round loop %+v", m.name, got.Degraded, want)
		}
	}
}

// TestRoundStatsAccounting: Enumerated + seeded slots cover all gates in
// every round, and every gate is classified.
func TestRoundStatsAccounting(t *testing.T) {
	res := MinimizeMC(rippleAdder(24), Options{Workers: 1})
	for i, r := range res.Rounds {
		if r.Enumerated < 0 || r.Enumerated > r.Gates || r.Classified != r.Gates {
			t.Fatalf("round %d: implausible stats %+v", i+1, r)
		}
	}
	// The stringification below keeps the fields from being optimized into
	// the void if the struct changes shape; it also documents the layout.
	_ = fmt.Sprintf("%+v", res.Rounds[0])
}

// TestIncrementalDropsGateWithSubstitutedFanin pins the local-cleanliness
// check of carryState: a gate whose stored fanin a commit substituted keeps
// its node id and its place in LiveNodes, but its cut list describes the
// old cone and must not be carried. Here g = a∧z with a = x∧y, and the
// commit replaces a by t = z⊕w, an output Cleanup numbers before the AND
// gates, so every id keeps its order. Under depth ranking with one cut per
// node, g's list is [{x,y,z}]; carried, the next round would adopt it
// unchanged, since g's resolved fanins t and z and their lists are the same
// as at round start, where a fresh enumeration gives [{z,w}].
func TestIncrementalDropsGateWithSubstitutedFanin(t *testing.T) {
	b := xag.New()
	x, y, z, w := b.AddPI("x"), b.AddPI("y"), b.AddPI("z"), b.AddPI("w")
	b.AddPO(b.Xor(z, w), "t")
	b.AddPO(b.And(b.And(x, y), z), "g")
	net := b.Cleanup()
	tl, g := net.PO(0), net.PO(1).Node()
	_, al := net.Fanins(g)
	if !net.IsGate(al.Node()) {
		t.Fatalf("g's second fanin %v is not the gate a", al)
	}

	e := NewEngine(nil, Options{Cost: cost.Depth(), CutSize: 3, CutLimit: 1})
	params := e.cutParams(net)
	cuts := cut.Enumerate(net, params)
	if got := cuts.For(g)[0].Leaves(); !reflect.DeepEqual(got, []int{x.Node(), y.Node(), z.Node()}) {
		t.Fatalf("g keeps cut %v, want {x,y,z}", got)
	}
	depths := make([]int, net.NumNodes())
	for id := range depths {
		depths[id] = net.AndDepth(id)
	}

	// What a commit does: replace a by t, then the end-of-round Cleanup.
	base := net.NumNodes()
	net.Substitute(al.Node(), tl)
	out, m := net.CleanupMap()
	inc := &incState{}
	e.carryState(inc, net, out, m, cuts, depths, base)
	if !inc.valid {
		t.Fatal("carryState dropped every seed")
	}
	if cs := inc.cuts.For(m[g].Node()); cs != nil {
		t.Fatalf("g carries a cut list over its substituted fanin: %v", cs[0].Leaves())
	}

	params = e.cutParams(out)
	got, _, err := cut.EnumerateIncremental(context.Background(), out, params, 1, inc.seed(out, true))
	if err != nil {
		t.Fatal(err)
	}
	want := cut.Enumerate(out, params)
	for id := 0; id < out.NumNodes(); id++ {
		if !reflect.DeepEqual(got.For(id), want.For(id)) {
			t.Errorf("node %d: seeded enumeration %v, fresh %v", id, got.For(id), want.For(id))
		}
	}
}
