package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/builder"
	"repro/internal/cost"
	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/tt"
	"repro/internal/xag"
)

// md5Style builds a small MD5-flavored mixing network out of builder
// primitives: two rounds of F(b,c,d) = (b∧c) ∨ (¬b∧d) mixed into a rotating
// accumulator with modular adds. Big enough to exercise many distinct cut
// classes, small enough to optimize in a unit test.
func md5Style(w int) *xag.Network {
	b := builder.New()
	a := b.Input("a", w)
	bb := b.Input("b", w)
	c := b.Input("c", w)
	d := b.Input("d", w)
	for round := 0; round < 2; round++ {
		f := make(builder.Bus, w)
		for i := 0; i < w; i++ {
			f[i] = b.MuxNaive(bb[i], c[i], d[i]) // MD5's F as a mux
		}
		sum := b.AddMod(a, f)
		sum = b.AddMod(sum, b.Const(0xd76aa478&(1<<uint(w)-1), w))
		rot := b.RotateLeftConst(sum, 3+round*4)
		newB := b.AddMod(bb, rot)
		a, bb, c, d = d, newB, bb, c
	}
	b.Output("a", a)
	b.Output("b", bb)
	return b.Net.Cleanup()
}

// bristol renders a network in Bristol format for byte-exact comparison.
func bristol(t *testing.T, n *xag.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.WriteBristol(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the engine's core contract: for every worker
// count the committed network is bit-identical — same node ids, same
// literals, same Bristol serialization — to the sequential run.
func TestParallelDeterminism(t *testing.T) {
	nets := map[string]func() *xag.Network{
		"adder-16":  func() *xag.Network { return rippleAdder(16) },
		"md5-style": func() *xag.Network { return md5Style(8) },
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 3; i++ {
		seed := rng.Int63()
		nets["random"] = func() *xag.Network {
			return randomNetwork(rand.New(rand.NewSource(seed)), 8, 120)
		}
		for name, build := range nets {
			ref := MinimizeMC(build(), Options{Workers: 1})
			refB := bristol(t, ref.Network)
			for _, workers := range []int{2, 8} {
				got := MinimizeMC(build(), Options{Workers: workers})
				if got.Final().And != ref.Final().And {
					t.Fatalf("%s: workers=%d AND count %d, want %d",
						name, workers, got.Final().And, ref.Final().And)
				}
				if !bytes.Equal(bristol(t, got.Network), refB) {
					t.Fatalf("%s: workers=%d network differs from sequential run", name, workers)
				}
			}
		}
	}
}

// TestParallelEquivalence checks that parallel runs remain functionally
// correct (not merely self-consistent) on random networks.
func TestParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 4; trial++ {
		n := randomNetwork(rng, 8, 150)
		res := MinimizeMC(n, Options{Workers: 8})
		equalOnRandom(t, n, res.Network, 8, 52)
	}
}

// TestClassCacheHitRate: after the first round the shared classification
// cache answers most lookups (>50% hit rate on a structure-heavy adder,
// whose stages all share a handful of classes).
func TestClassCacheHitRate(t *testing.T) {
	db := mcdb.New(mcdb.Options{})
	roundReference(t, rippleAdder(32), Options{Workers: 4, DB: db})
	s := db.Stats()
	if s.Classified+s.ClassCacheHits == 0 {
		t.Fatalf("no classifications recorded")
	}
	if rate := s.ClassHitRate(); rate <= 0.5 {
		t.Fatalf("class cache hit rate %.2f, want > 0.5 (hits=%d misses=%d)",
			rate, s.ClassCacheHits, s.Classified)
	}
}

// TestEngineReuseAcrossNetworks: one engine optimizing two networks reuses
// its database — the second run's classifications hit the warm cache.
func TestEngineReuseAcrossNetworks(t *testing.T) {
	eng := NewEngine(nil, Options{})
	if r := eng.Minimize(context.Background(), rippleAdder(8)); r.Err != nil {
		t.Fatal(r.Err)
	}
	before := eng.DB().Stats()
	if r := eng.Minimize(context.Background(), rippleAdder(8)); r.Err != nil {
		t.Fatal(r.Err)
	}
	after := eng.DB().Stats()
	if after.Classified != before.Classified {
		t.Fatalf("second run re-classified %d functions; the warm cache should answer all",
			after.Classified-before.Classified)
	}
	if after.ClassCacheHits <= before.ClassCacheHits {
		t.Fatalf("second run recorded no cache hits")
	}
}

// TestEngineRoundDeterministic: two fresh engines produce byte-identical
// networks and identical stats for the same input round. (This replaces the
// old comparison against the retired RewriteRound shim.)
func TestEngineRoundDeterministic(t *testing.T) {
	aNet, aStats, err := NewEngine(nil, Options{}).Round(context.Background(), rippleAdder(8))
	if err != nil {
		t.Fatal(err)
	}
	bNet, bStats, err := NewEngine(nil, Options{}).Round(context.Background(), rippleAdder(8))
	if err != nil {
		t.Fatal(err)
	}
	if aStats.Replacements != bStats.Replacements || aStats.After != bStats.After {
		t.Fatalf("stats differ across engines: %+v vs %+v", aStats, bStats)
	}
	if !bytes.Equal(bristol(t, aNet), bristol(t, bNet)) {
		t.Fatalf("networks differ across engines")
	}
}

// TestEngineRoundCancellation: a pre-canceled context leaves the network
// untouched and surfaces the context error.
func TestEngineRoundCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := rippleAdder(8)
	want := in.CountGates()
	eng := NewEngine(nil, Options{Workers: 4})
	out, stats, err := eng.Round(ctx, in)
	if err == nil {
		t.Fatalf("canceled round returned no error")
	}
	if stats.Replacements != 0 {
		t.Fatalf("canceled round committed %d replacements", stats.Replacements)
	}
	if got := out.CountGates(); got != want {
		t.Fatalf("canceled round changed the network: %+v -> %+v", want, got)
	}
}

// TestEngineDegradationAccumulates: Engine.Degraded sums over rounds while
// each Minimize result reports only its own slice.
func TestEngineDegradationAccumulates(t *testing.T) {
	eng := NewEngine(nil, Options{})
	r1 := eng.Minimize(context.Background(), md5Style(6))
	r2 := eng.Minimize(context.Background(), rippleAdder(6))
	want := r1.Degraded.Total() + r2.Degraded.Total()
	if got := eng.Degraded().Total(); got != want {
		t.Fatalf("engine accumulated %d degradation events, want %d", got, want)
	}
}

// TestPrepareNodeAllocs pins the classify stage's allocation profile: once
// the worker-local map holds a gate's cut functions, preparing the gate
// costs one allocation, its candidate slice, and nothing per cut.
func TestPrepareNodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count not pinned under -race: instrumented builds may move values to the heap")
	}
	e := NewEngine(nil, Options{Workers: 1})
	net := md5Style(8)
	cuts := cut.Enumerate(net, e.cutParams(net))
	localPrep := make(map[tt.T]*memoPrep)
	var deg Degradation
	for _, id := range net.LiveNodes() {
		if !net.IsGate(id) {
			continue
		}
		cs := cuts.For(id)
		entries := 0
		for _, p := range e.prepareNode(id, cs, localPrep, &deg) {
			if !p.verdict.constant {
				entries++
			}
		}
		if entries < 3 {
			continue
		}
		if avg := testing.AllocsPerRun(100, func() { e.prepareNode(id, cs, localPrep, &deg) }); avg != 1 {
			t.Fatalf("node %d (%d cuts, %d candidates): prepareNode allocates %.1f times, want 1",
				id, len(cs), entries, avg)
		}
		return
	}
	t.Fatal("no gate with three usable candidates")
}

// TestRankedEnumerateAllocs: ranking cuts under the depth model costs no
// allocation per candidate. Enumerating with the engine's depth-ranked
// parameters allocates no more than the unranked enumeration of the same
// network plus a constant.
func TestRankedEnumerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count not pinned under -race: instrumented builds may move values to the heap")
	}
	net := md5Style(8)
	ranked := NewEngine(nil, Options{Cost: cost.Depth()}).cutParams(net)
	if ranked.Rank == nil {
		t.Fatal("the depth model does not rank cuts")
	}
	plain := ranked
	plain.Rank = nil
	cut.Enumerate(net, ranked) // warm the scratch pool
	allocs := func(p cut.Params) float64 {
		return testing.AllocsPerRun(5, func() { cut.Enumerate(net, p) })
	}
	if r, u := allocs(ranked), allocs(plain); r > u+16 {
		t.Fatalf("depth-ranked enumeration allocates %.0f times, unranked %.0f; want at most 16 more", r, u)
	}
}
