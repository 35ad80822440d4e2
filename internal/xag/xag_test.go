package xag

import (
	"math/rand"
	"testing"
)

// buildFullAdder builds the full adder of the paper's Fig. 1 with exactly
// three ANDs and two XORs: sum = (a⊕b) ⊕ cin and
// cout = (a∧b) ∨ (cin ∧ (a⊕b)), the OR realized as an AND with complemented
// edges.
func buildFullAdder() (*Network, Lit, Lit, Lit) {
	n := New()
	a, b, cin := n.AddPI("a"), n.AddPI("b"), n.AddPI("cin")
	ab := n.Xor(a, b)
	sum := n.Xor(ab, cin)
	cout := n.Or(n.And(a, b), n.And(cin, ab))
	n.AddPO(sum, "sum")
	n.AddPO(cout, "cout")
	return n, a, b, cin
}

func TestFullAdderCounts(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	c := n.CountGates()
	if c.And != 3 {
		t.Fatalf("full adder ANDs = %d, want 3", c.And)
	}
	if c.Xor != 2 {
		t.Fatalf("full adder XORs = %d, want 2", c.Xor)
	}
	if c.AndDepth != 2 {
		t.Fatalf("full adder AND depth = %d, want 2", c.AndDepth)
	}
}

func TestFullAdderFunction(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		out := n.EvalBools(in)
		ones := 0
		for _, v := range in {
			if v {
				ones++
			}
		}
		if out[0] != (ones%2 == 1) {
			t.Fatalf("sum(%03b) = %v", m, out[0])
		}
		if out[1] != (ones >= 2) {
			t.Fatalf("cout(%03b) = %v", m, out[1])
		}
	}
}

func TestConstantFolding(t *testing.T) {
	n := New()
	a := n.AddPI("a")
	cases := []struct {
		got, want Lit
		name      string
	}{
		{n.And(Const0, a), Const0, "0∧a"},
		{n.And(a, Const0), Const0, "a∧0"},
		{n.And(Const1, a), a, "1∧a"},
		{n.And(a, a), a, "a∧a"},
		{n.And(a, a.Not()), Const0, "a∧¬a"},
		{n.Xor(Const0, a), a, "0⊕a"},
		{n.Xor(Const1, a), a.Not(), "1⊕a"},
		{n.Xor(a, a), Const0, "a⊕a"},
		{n.Xor(a, a.Not()), Const1, "a⊕¬a"},
		{n.Or(a, Const1), Const1, "a∨1"},
		{n.Or(a, Const0), a, "a∨0"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if n.NumNodes() != 2 { // constant + a: no gate was created
		t.Fatalf("folding created nodes: %d", n.NumNodes())
	}
}

func TestStructuralHashing(t *testing.T) {
	n := New()
	a, b := n.AddPI("a"), n.AddPI("b")
	g1 := n.And(a, b)
	g2 := n.And(b, a) // commuted
	if g1 != g2 {
		t.Fatalf("AND not commutatively hashed")
	}
	x1 := n.Xor(a, b)
	x2 := n.Xor(b.Not(), a) // complement must normalize to output
	if x2 != x1.Not() {
		t.Fatalf("XOR complement normalization failed: %v vs %v", x1, x2)
	}
	x3 := n.Xor(a.Not(), b.Not())
	if x3 != x1 {
		t.Fatalf("double complement should cancel: %v vs %v", x1, x3)
	}
	if got := n.NumNodes(); got != 5 { // const, a, b, and, xor
		t.Fatalf("NumNodes = %d, want 5", got)
	}
}

func TestMuxAndMajUseOneAnd(t *testing.T) {
	n := New()
	a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
	n.AddPO(n.Maj(a, b, c), "maj")
	if got := n.NumAnds(); got != 1 {
		t.Fatalf("maj uses %d ANDs, want 1", got)
	}
	m := New()
	s, x, y := m.AddPI("s"), m.AddPI("x"), m.AddPI("y")
	m.AddPO(m.Mux(s, x, y), "mux")
	if got := m.NumAnds(); got != 1 {
		t.Fatalf("mux uses %d ANDs, want 1", got)
	}
	// Verify functionality exhaustively.
	for mt := 0; mt < 8; mt++ {
		in := []bool{mt&1 == 1, mt&2 == 2, mt&4 == 4}
		maj := n.EvalBools(in)[0]
		ones := 0
		for _, v := range in {
			if v {
				ones++
			}
		}
		if maj != (ones >= 2) {
			t.Fatalf("maj(%03b) = %v", mt, maj)
		}
		mux := m.EvalBools(in)[0]
		want := in[2]
		if in[0] {
			want = in[1]
		}
		if mux != want {
			t.Fatalf("mux(%03b) = %v, want %v", mt, mux, want)
		}
	}
}

func TestSubstituteAndCleanup(t *testing.T) {
	n, a, b, cin := buildFullAdder()
	// Replace cout's 3-AND majority cone by the 1-AND majority form.
	coutOld := n.PO(1)
	better := n.Maj(a, b, cin)
	if n.InTFI(better, coutOld.Node()) {
		t.Fatalf("unexpected TFI containment")
	}
	n.Substitute(coutOld.Node(), better.NotIf(coutOld.Compl()))
	clean := n.Cleanup()
	if got := clean.NumAnds(); got != 1 {
		t.Fatalf("after substitution ANDs = %d, want 1", got)
	}
	// Function must be preserved.
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		ones := 0
		for _, v := range in {
			if v {
				ones++
			}
		}
		out := clean.EvalBools(in)
		if out[0] != (ones%2 == 1) || out[1] != (ones >= 2) {
			t.Fatalf("function changed at %03b", m)
		}
	}
}

func TestRefCounts(t *testing.T) {
	n := New()
	a, b := n.AddPI("a"), n.AddPI("b")
	g := n.And(a, b)
	if n.Ref(g.Node()) != 0 {
		t.Fatalf("fresh gate ref = %d", n.Ref(g.Node()))
	}
	if n.Ref(a.Node()) != 1 || n.Ref(b.Node()) != 1 {
		t.Fatalf("fanin refs wrong: %d %d", n.Ref(a.Node()), n.Ref(b.Node()))
	}
	n.AddPO(g, "o")
	if n.Ref(g.Node()) != 1 {
		t.Fatalf("PO ref not counted")
	}
	h := n.Xor(g, a)
	n.AddPO(h, "p")
	if n.Ref(g.Node()) != 2 {
		t.Fatalf("gate fanout ref not counted")
	}
}

func TestMFFCAnds(t *testing.T) {
	n, a, b, cin := buildFullAdder()
	cout := n.PO(1)
	leaves := map[int]bool{a.Node(): true, b.Node(): true, cin.Node(): true}
	// cout's MFFC holds the three ANDs; the a⊕b XOR is shared with sum and
	// must stay out.
	if got, _ := n.MFFC(cout.Node(), leaves); got != 3 {
		t.Fatalf("MFFC ANDs = %d, want 3", got)
	}
	// The sum cone contains only XORs.
	sum := n.PO(0)
	if got, _ := n.MFFC(sum.Node(), leaves); got != 0 {
		t.Fatalf("sum MFFC ANDs = %d, want 0", got)
	}
}

func TestMFFCStopsAtSharedNodes(t *testing.T) {
	n := New()
	a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
	shared := n.And(a, b)
	top := n.And(shared, c)
	other := n.Xor(shared, c)
	n.AddPO(top, "t")
	n.AddPO(other, "o")
	leaves := map[int]bool{a.Node(): true, b.Node(): true, c.Node(): true}
	// shared has another fanout, so only top is in the MFFC.
	if got, _ := n.MFFC(top.Node(), leaves); got != 1 {
		t.Fatalf("MFFC ANDs = %d, want 1", got)
	}
}

func TestSimulateParallel(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	rng := rand.New(rand.NewSource(11))
	in := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	out := n.Simulate(in)
	for bit := 0; bit < 64; bit++ {
		ones := 0
		for _, w := range in {
			if w>>uint(bit)&1 == 1 {
				ones++
			}
		}
		if out[0]>>uint(bit)&1 == 1 != (ones%2 == 1) {
			t.Fatalf("parallel sum wrong at bit %d", bit)
		}
		if out[1]>>uint(bit)&1 == 1 != (ones >= 2) {
			t.Fatalf("parallel cout wrong at bit %d", bit)
		}
	}
}

func TestCleanupPreservesInterface(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	c := n.Cleanup()
	if c.NumPIs() != 3 || c.NumPOs() != 2 {
		t.Fatalf("interface changed: %d PIs %d POs", c.NumPIs(), c.NumPOs())
	}
	if c.PIName(0) != "a" || c.PIName(2) != "cin" {
		t.Fatalf("PI names lost")
	}
	if c.POName(1) != "cout" {
		t.Fatalf("PO names lost")
	}
}

func TestCleanupDropsDeadNodes(t *testing.T) {
	n := New()
	a, b := n.AddPI("a"), n.AddPI("b")
	n.And(a, b) // dead gate
	keep := n.Xor(a, b)
	n.AddPO(keep, "o")
	c := n.Cleanup()
	if c.NumAnds() != 0 || c.NumXors() != 1 {
		t.Fatalf("cleanup kept dead gate: %+v", c.CountGates())
	}
	if c.NumNodes() != 4 { // const, a, b, xor
		t.Fatalf("NumNodes = %d, want 4", c.NumNodes())
	}
}

func TestRandomNetworkCleanupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := New()
		lits := make([]Lit, 0, 40)
		for i := 0; i < 8; i++ {
			lits = append(lits, n.AddPI(""))
		}
		for i := 0; i < 60; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			if rng.Intn(2) == 0 {
				lits = append(lits, n.And(a, b))
			} else {
				lits = append(lits, n.Xor(a, b))
			}
		}
		for i := 0; i < 4; i++ {
			n.AddPO(lits[len(lits)-1-i], "")
		}
		c := n.Cleanup()
		in := make([]uint64, 8)
		for i := range in {
			in[i] = rng.Uint64()
		}
		want, got := n.Simulate(in), c.Simulate(in)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("cleanup changed function at PO %d", i)
			}
		}
	}
}
