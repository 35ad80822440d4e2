package xag

import (
	"math/rand"
	"testing"
)

// naiveAndDepths recomputes per-node AND depths from scratch, the
// reference the incremental tracker must match.
func naiveAndDepths(n *Network) map[int]int {
	andDepth := map[int]int{}
	for _, id := range n.LiveNodes() {
		if !n.IsGate(id) {
			continue
		}
		f0, f1 := n.Fanins(id)
		ad := max(andDepth[f0.Node()], andDepth[f1.Node()])
		if n.Kind(id) == KindAnd {
			ad++
		}
		andDepth[id] = ad
	}
	return andDepth
}

func checkDepthsMatch(t *testing.T, n *Network, step string) {
	t.Helper()
	andDepth := naiveAndDepths(n)
	for _, id := range n.LiveNodes() {
		if got, want := n.AndDepth(id), andDepth[id]; got != want {
			t.Fatalf("%s: AndDepth(%d) = %d, recount says %d", step, id, got, want)
		}
	}
	// The network-wide maximum must agree with CountGates' recount.
	c := n.CountGates()
	maxAD := 0
	for _, id := range n.LiveNodes() {
		maxAD = max(maxAD, n.AndDepth(id))
	}
	if maxAD != c.AndDepth {
		t.Fatalf("%s: incremental maximum %d != CountGates %d", step, maxAD, c.AndDepth)
	}
}

func randomDepthNetwork(rng *rand.Rand, nPIs, nGates int) *Network {
	n := New()
	lits := make([]Lit, 0, nPIs+nGates)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		if rng.Intn(2) == 0 {
			lits = append(lits, n.And(a, b))
		} else {
			lits = append(lits, n.Xor(a, b))
		}
	}
	for i := 0; i < 6 && i < len(lits); i++ {
		n.AddPO(lits[len(lits)-1-i], "")
	}
	return n
}

// TestDepthsOnFreshNetwork: construction keeps every node's depth valid.
func TestDepthsOnFreshNetwork(t *testing.T) {
	n, sum, _, _ := buildFullAdder()
	_ = sum
	checkDepthsMatch(t, n, "full adder")
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		checkDepthsMatch(t, randomDepthNetwork(rng, 6, 80), "random")
	}
}

// TestIncrementalDepthProperty is the tracker's contract: after any
// randomized sequence of Substitute and Cleanup operations, incrementally
// maintained AND depths match a from-scratch recount on every live node.
func TestIncrementalDepthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		n := randomDepthNetwork(rng, 5+rng.Intn(4), 60+rng.Intn(80))
		for op := 0; op < 30; op++ {
			switch rng.Intn(4) {
			case 0: // Cleanup: compact into a fresh network
				n = n.Cleanup()
			default: // Substitute a random live gate by a random literal
				live := n.LiveNodes()
				gates := live[:0:0]
				for _, id := range live {
					if n.IsGate(id) {
						gates = append(gates, id)
					}
				}
				if len(gates) == 0 {
					continue
				}
				old := gates[rng.Intn(len(gates))]
				repl := MakeLit(live[rng.Intn(len(live))], rng.Intn(2) == 0)
				repl = n.Resolve(repl)
				if repl.Node() == old || n.InTFI(repl, old) {
					continue // would create a combinational cycle
				}
				n.Substitute(old, repl)
			}
			checkDepthsMatch(t, n, "after op")
		}
	}
}

// TestDepthEpochReuse: queries after an unrelated substitution still agree,
// and equal-depth substitutions do not invalidate the caches.
func TestDepthSubstituteConstant(t *testing.T) {
	n := New()
	a, b := n.AddPI("a"), n.AddPI("b")
	g1 := n.And(a, b)
	g2 := n.And(g1, a)
	n.AddPO(g2, "out")
	if d := n.AndDepth(g2.Node()); d != 2 {
		t.Fatalf("AndDepth = %d, want 2", d)
	}
	n.Substitute(g1.Node(), Const1)
	// g2 = AND(1, a) still refers to the gate node; its depth over the
	// substituted graph is 1.
	if d := n.AndDepth(g2.Node()); d != 1 {
		t.Fatalf("after substitution AndDepth = %d, want 1", d)
	}
	checkDepthsMatch(t, n, "after constant substitution")
}

// TestCloneDeepCopyPreservesIDs pins the repaired Clone contract: node ids
// survive the copy, and the copy shares no mutable state.
func TestCloneDeepCopyPreservesIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := randomDepthNetwork(rng, 6, 60)
	// Introduce a pending substitution so Clone must carry forwarding
	// state, not just live logic.
	var gate int
	for _, id := range n.LiveNodes() {
		if n.IsGate(id) {
			gate = id
		}
	}
	n.Substitute(gate, Const0)

	c := n.Clone()
	if c.NumNodes() != n.NumNodes() {
		t.Fatalf("Clone changed node count: %d != %d", c.NumNodes(), n.NumNodes())
	}
	for id := 0; id < n.NumNodes(); id++ {
		if c.Kind(id) != n.Kind(id) {
			t.Fatalf("Clone changed kind of node %d", id)
		}
		if got, want := c.Resolve(MakeLit(id, false)), n.Resolve(MakeLit(id, false)); got != want {
			t.Fatalf("Clone changed resolution of node %d: %v != %v", id, got, want)
		}
		if c.Ref(id) != n.Ref(id) {
			t.Fatalf("Clone changed ref count of node %d", id)
		}
	}
	if c.NumPIs() != n.NumPIs() || c.NumPOs() != n.NumPOs() {
		t.Fatalf("Clone changed the interface")
	}
	for i := 0; i < n.NumPOs(); i++ {
		if c.PO(i) != n.PO(i) || c.POName(i) != n.POName(i) {
			t.Fatalf("Clone changed PO %d", i)
		}
	}

	// Mutating the clone must not leak into the original.
	before := n.CountGates()
	x, y := c.PI(0), c.PI(1)
	c.AddPO(c.And(x, y), "extra")
	var liveGate int
	for _, id := range c.LiveNodes() {
		if c.IsGate(id) {
			liveGate = id
		}
	}
	c.Substitute(liveGate, Const1)
	if after := n.CountGates(); after != before {
		t.Fatalf("mutating the clone changed the original: %+v != %+v", after, before)
	}
	if n.NumPOs() == c.NumPOs() {
		t.Fatalf("AddPO on the clone affected the original")
	}
}

// TestCloneEquivalent: the clone computes the same functions.
func TestCloneEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	n := randomDepthNetwork(rng, 6, 50)
	c := n.Clone()
	in := make([]uint64, n.NumPIs())
	for i := range in {
		in[i] = rng.Uint64()
	}
	a, b := n.Simulate(in), c.Simulate(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone differs at PO %d", i)
		}
	}
}
