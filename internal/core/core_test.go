package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/xag"
)

// fullAdder builds the paper's Fig. 1 full adder (3 ANDs, 2 XORs).
func fullAdder() *xag.Network {
	n := xag.New()
	a, b, cin := n.AddPI("a"), n.AddPI("b"), n.AddPI("cin")
	ab := n.Xor(a, b)
	n.AddPO(n.Xor(ab, cin), "sum")
	n.AddPO(n.Or(n.And(a, b), n.And(cin, ab)), "cout")
	return n
}

// rippleAdder builds a w-bit ripple-carry adder with a 3-AND majority per
// stage — deliberately naive, so the optimizer has work to do.
func rippleAdder(w int) *xag.Network {
	n := xag.New()
	as := make([]xag.Lit, w)
	bs := make([]xag.Lit, w)
	for i := range as {
		as[i] = n.AddPI("")
	}
	for i := range bs {
		bs[i] = n.AddPI("")
	}
	carry := xag.Const0
	for i := 0; i < w; i++ {
		n.AddPO(n.Xor(n.Xor(as[i], bs[i]), carry), "")
		carry = n.Or(n.Or(n.And(as[i], bs[i]), n.And(as[i], carry)), n.And(bs[i], carry))
	}
	n.AddPO(carry, "cout")
	return n
}

// equalOnRandom checks functional equivalence of two networks with the same
// interface on 64·rounds random patterns.
func equalOnRandom(t *testing.T, a, b *xag.Network, rounds int, seed int64) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch: %d/%d PIs, %d/%d POs",
			a.NumPIs(), b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		in := make([]uint64, a.NumPIs())
		for i := range in {
			in[i] = rng.Uint64()
		}
		oa, ob := a.Simulate(in), b.Simulate(in)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("round %d: PO %d differs", r, i)
			}
		}
	}
}

func TestFullAdderMC1(t *testing.T) {
	n := fullAdder()
	res := MinimizeMC(n, Options{})
	if got := res.Network.NumAnds(); got != 1 {
		t.Fatalf("full adder optimized to %d ANDs, want 1 (paper Example 3.1)", got)
	}
	equalOnRandom(t, n, res.Network, 4, 1)
	if !res.Converged {
		t.Fatalf("optimization did not converge")
	}
}

func TestRippleAdderReachesOneAndPerBit(t *testing.T) {
	// The paper reports the w-bit adder optimized down to w AND gates,
	// which is the known optimum (Boyar & Peralta).
	for _, w := range []int{4, 8} {
		n := rippleAdder(w)
		before := n.NumAnds()
		res := MinimizeMC(n, Options{})
		got := res.Network.NumAnds()
		if got != w {
			t.Fatalf("w=%d: optimized to %d ANDs, want %d (before: %d)", w, got, w, before)
		}
		equalOnRandom(t, n, res.Network, 4, 2)
	}
}

func TestRandomNetworksPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := randomNetwork(rng, 8, 120)
		res := MinimizeMC(n, Options{MaxRounds: 3})
		if res.Network.NumAnds() > n.NumAnds() {
			t.Fatalf("trial %d: AND count increased %d → %d",
				trial, n.NumAnds(), res.Network.NumAnds())
		}
		equalOnRandom(t, n, res.Network, 4, int64(100+trial))
	}
}

func TestZeroGainPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		n := randomNetwork(rng, 6, 60)
		res := MinimizeMC(n, Options{AllowZeroGain: true, MaxRounds: 2})
		equalOnRandom(t, n, res.Network, 4, int64(200+trial))
	}
}

func TestCostSizeBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n := randomNetwork(rng, 7, 100)
		res := MinimizeMC(n, Options{Cost: cost.Size(), MaxRounds: 4})
		before := n.CountGates()
		after := res.Network.CountGates()
		if after.And+after.Xor > before.And+before.Xor {
			t.Fatalf("trial %d: size increased %d → %d",
				trial, before.And+before.Xor, after.And+after.Xor)
		}
		equalOnRandom(t, n, res.Network, 4, int64(300+trial))
	}
}

func TestSmallCutSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := randomNetwork(rng, 8, 120)
	for _, k := range []int{3, 4, 5} {
		res := MinimizeMC(n, Options{CutSize: k, MaxRounds: 2})
		equalOnRandom(t, n, res.Network, 3, int64(400+k))
	}
}

func TestStatsAreRecorded(t *testing.T) {
	n := rippleAdder(4)
	res := MinimizeMC(n, Options{})
	if len(res.Rounds) == 0 {
		t.Fatalf("no rounds recorded")
	}
	if res.Rounds[0].Replacements == 0 {
		t.Fatalf("first round made no replacements on a naive adder")
	}
	if res.Initial().And != n.NumAnds() {
		t.Fatalf("Initial() = %d, want %d", res.Initial().And, n.NumAnds())
	}
	if res.Final().And != res.Network.NumAnds() {
		t.Fatalf("Final() = %d, want %d", res.Final().And, res.Network.NumAnds())
	}
}

// randomNetwork builds a connected random XAG.
func randomNetwork(rng *rand.Rand, nPIs, nGates int) *xag.Network {
	n := xag.New()
	lits := make([]xag.Lit, 0, nPIs+nGates)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		if rng.Intn(3) != 0 { // bias towards ANDs to give the rewriter room
			lits = append(lits, n.And(a, b))
		} else {
			lits = append(lits, n.Xor(a, b))
		}
	}
	for i := 0; i < 4 && i < len(lits); i++ {
		n.AddPO(lits[len(lits)-1-i], "")
	}
	return n.Cleanup()
}

func TestRewriteCheckSilentOnValidRewrites(t *testing.T) {
	// The always-on per-replacement check recomputes every replacement's
	// function; it must pass silently on valid rewrites.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 6; trial++ {
		n := randomNetwork(rng, 7, 80)
		res := MinimizeMC(n, Options{MaxRounds: 2})
		equalOnRandom(t, n, res.Network, 3, int64(500+trial))
	}
	adder := rippleAdder(8)
	res := MinimizeMC(adder, Options{})
	if res.Network.NumAnds() != 8 {
		t.Fatalf("verified run changed the result: %d ANDs", res.Network.NumAnds())
	}
}
