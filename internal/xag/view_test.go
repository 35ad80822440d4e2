package xag

import (
	"math/rand"
	"testing"
)

// randomCompactNet builds a random compact XAG over nPIs inputs with
// roughly nGates gates and a few POs.
func randomCompactNet(rng *rand.Rand, nPIs, nGates int) *Network {
	n := New()
	lits := make([]Lit, 0, nPIs+nGates)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		var v Lit
		if rng.Intn(2) == 0 {
			v = n.And(a, b)
		} else {
			v = n.Xor(a, b)
		}
		lits = append(lits, v)
	}
	for i := 0; i < 3; i++ {
		n.AddPO(lits[len(lits)-1-i], "")
	}
	n.AddPO(lits[0], "pi0") // keep at least one node live despite folding
	return n.Cleanup()
}

// evalNode evaluates one node of a network under a PI assignment (bit i of
// input = value of PI i).
func evalNode(n *Network, l Lit, input uint64) bool {
	l = n.Resolve(l)
	var eval func(id int) bool
	eval = func(id int) bool {
		switch n.Kind(id) {
		case KindConst:
			return false
		case KindPI:
			for i := 0; i < n.NumPIs(); i++ {
				if n.pis[i] == id {
					return input>>uint(i)&1 == 1
				}
			}
			panic("unknown PI")
		}
		f0, f1 := n.Fanins(id)
		a := eval(f0.Node()) != f0.Compl()
		b := eval(f1.Node()) != f1.Compl()
		if n.Kind(id) == KindAnd {
			return a && b
		}
		return a != b
	}
	return eval(l.Node()) != l.Compl()
}

func TestCleanupMapFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := randomCompactNet(rng, 5, 25)
		// Mutate a little so the map is non-trivial.
		live := n.LiveNodes()
		for k := 0; k < 3; k++ {
			id := live[rng.Intn(len(live))]
			if n.IsGate(id) && n.Resolve(MakeLit(id, false)).Node() == id {
				n.Substitute(id, n.PI(rng.Intn(n.NumPIs())))
			}
		}
		out, m := n.CleanupMap()
		if len(m) != n.NumNodes() {
			t.Fatalf("map length %d, want %d", len(m), n.NumNodes())
		}
		for _, id := range n.LiveNodes() {
			if n.Resolve(MakeLit(id, false)).Node() != id {
				continue // substituted: no own entry
			}
			img := m[id]
			if img == NullLit {
				t.Fatalf("trial %d: live node %d has no image", trial, id)
			}
			for input := uint64(0); input < 1<<uint(n.NumPIs()); input++ {
				if evalNode(n, MakeLit(id, false), input) != evalNode(out, img, input) {
					t.Fatalf("trial %d: node %d and image %v disagree on input %b",
						trial, id, img, input)
				}
			}
		}
	}
}

func TestMFFCScratchMatchesMFFC(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s ConeScratch
	for trial := 0; trial < 40; trial++ {
		n := randomCompactNet(rng, 6, 50)
		live := n.LiveNodes()
		for k := 0; k < 10; k++ {
			root := live[rng.Intn(len(live))]
			// A random leaf set: some PIs plus some random live nodes.
			leafSet := map[int]bool{}
			for i := 0; i < n.NumPIs(); i++ {
				leafSet[n.pis[i]] = true
			}
			for j := 0; j < 3; j++ {
				leafSet[live[rng.Intn(len(live))]] = true
			}
			delete(leafSet, root)
			var leaves []int
			for id := range leafSet {
				leaves = append(leaves, id)
			}
			wantA, wantX := n.MFFC(root, leafSet)
			gotA, gotX := n.MFFCScratch(root, leaves, &s)
			if gotA != wantA || gotX != wantX {
				t.Fatalf("trial %d root %d: MFFCScratch = (%d,%d), MFFC = (%d,%d)",
					trial, root, gotA, gotX, wantA, wantX)
			}
		}
	}
}

func TestMFFCScratchAllocs(t *testing.T) {
	n := New()
	a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
	g := n.And(n.Xor(a, b), n.And(b, c))
	n.AddPO(g, "o")
	leaves := []int{a.Node(), b.Node(), c.Node()}
	var s ConeScratch
	n.MFFCScratch(g.Node(), leaves, &s) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		n.MFFCScratch(g.Node(), leaves, &s)
	})
	if allocs != 0 {
		t.Fatalf("MFFCScratch allocates %.1f times per call, want 0", allocs)
	}
}

// TestInTFIScratchMatchesInTFI: the scratch-based TFI query must agree with
// the allocating reference on random networks, and repeated queries through
// one scratch must not allocate once warmed.
func TestInTFIScratchMatchesInTFI(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	n := randomCompactNet(rng, 6, 80)
	var s TFIScratch
	ids := n.LiveNodes()
	for trial := 0; trial < 300; trial++ {
		l := MakeLit(ids[rng.Intn(len(ids))], rng.Intn(2) == 1)
		target := ids[rng.Intn(len(ids))]
		want := refInTFI(n, l, target)
		if got := n.InTFIScratch(l, target, &s); got != want {
			t.Fatalf("InTFIScratch(%v, %d) = %v, want %v", l, target, got, want)
		}
		if got := n.InTFI(l, target); got != want {
			t.Fatalf("InTFI(%v, %d) = %v, want %v", l, target, got, want)
		}
	}
	l := MakeLit(ids[len(ids)-1], false)
	n.InTFIScratch(l, 1, &s) // warm
	allocs := testing.AllocsPerRun(100, func() {
		n.InTFIScratch(l, 1, &s)
	})
	if allocs != 0 {
		t.Fatalf("warmed InTFIScratch allocates %.1f times per query, want 0", allocs)
	}
}
