package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xag"
)

func pair(mutate bool) (*xag.Network, *xag.Network) {
	build := func(buggy bool) *xag.Network {
		n := xag.New()
		a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
		maj := n.Maj(a, b, c)
		if buggy {
			maj = n.Mux(a, b, c) // different function
		}
		n.AddPO(maj, "y")
		n.AddPO(n.Xor(n.Xor(a, b), c), "p")
		return n
	}
	return build(false), build(mutate)
}

func TestExhaustiveEqual(t *testing.T) {
	a, b := pair(false)
	if err := ExhaustiveEqual(a, b); err != nil {
		t.Fatalf("equivalent networks reported different: %v", err)
	}
	a, b = pair(true)
	err := ExhaustiveEqual(a, b)
	if err == nil {
		t.Fatalf("different networks reported equal")
	}
	ce, ok := err.(*Counterexample)
	if !ok {
		t.Fatalf("want counterexample, got %v", err)
	}
	// The counterexample must actually witness the difference.
	if a.EvalBools(ce.Inputs)[ce.PO] == b.EvalBools(ce.Inputs)[ce.PO] {
		t.Fatalf("counterexample does not differentiate the networks")
	}
}

func TestRandomEqual(t *testing.T) {
	a, b := pair(false)
	if err := RandomEqual(a, b, 8, 1); err != nil {
		t.Fatalf("equivalent networks reported different: %v", err)
	}
	a, b = pair(true)
	if err := RandomEqual(a, b, 8, 1); err == nil {
		t.Fatalf("different 3-input networks evaded 512 random patterns")
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a, _ := pair(false)
	c := xag.New()
	c.AddPO(c.AddPI("x"), "y")
	if err := ExhaustiveEqual(a, c); err == nil {
		t.Fatalf("interface mismatch not detected")
	}
}

func TestEqualDispatch(t *testing.T) {
	// Wide circuits take the random path; narrow ones the exhaustive path.
	rng := rand.New(rand.NewSource(3))
	n := xag.New()
	var acc xag.Lit = xag.Const0
	for i := 0; i < 30; i++ {
		acc = n.Xor(acc, n.AddPI(""))
	}
	n.AddPO(acc, "p")
	m := n.Cleanup()
	if err := Equal(n, m, 4, 7); err != nil {
		t.Fatalf("parity clone mismatch: %v", err)
	}
	_ = rng
}

func TestExhaustiveTooWide(t *testing.T) {
	n := xag.New()
	var acc xag.Lit = xag.Const0
	for i := 0; i < 21; i++ {
		acc = n.Xor(acc, n.AddPI(""))
	}
	n.AddPO(acc, "p")
	if err := ExhaustiveEqual(n, n.Cleanup()); err == nil {
		t.Fatalf("expected width refusal for 21 inputs")
	}
}

func TestSingleBitDifferenceFound(t *testing.T) {
	// Networks equal everywhere except one minterm of a 10-input function.
	build := func(poison bool) *xag.Network {
		n := xag.New()
		ins := make([]xag.Lit, 10)
		for i := range ins {
			ins[i] = n.AddPI("")
		}
		acc := xag.Const0
		for _, l := range ins {
			acc = n.Xor(acc, l)
		}
		if poison {
			// Flip the output on the all-ones minterm.
			all := xag.Const1
			for _, l := range ins {
				all = n.And(all, l)
			}
			acc = n.Xor(acc, all)
		}
		n.AddPO(acc, "y")
		return n
	}
	err := ExhaustiveEqual(build(false), build(true))
	ce, ok := err.(*Counterexample)
	if !ok {
		t.Fatalf("single-minterm difference missed: %v", err)
	}
	for _, v := range ce.Inputs {
		if !v {
			t.Fatalf("counterexample should be the all-ones assignment, got %v", ce.Inputs)
		}
	}
}

// referenceSimulate is Network.Simulate as it was before xag.Evaluator: it
// walks LiveNodes and allocates its value and output words on every call.
func referenceSimulate(n *xag.Network, inputs []uint64) []uint64 {
	vals := make([]uint64, n.NumNodes())
	for i := range inputs {
		vals[n.PI(i).Node()] = inputs[i]
	}
	for _, id := range n.LiveNodes() {
		if !n.IsGate(id) {
			continue
		}
		f0, f1 := n.Fanins(id)
		a := vals[f0.Node()]
		if f0.Compl() {
			a = ^a
		}
		b := vals[f1.Node()]
		if f1.Compl() {
			b = ^b
		}
		if n.Kind(id) == xag.KindAnd {
			vals[id] = a & b
		} else {
			vals[id] = a ^ b
		}
	}
	out := make([]uint64, n.NumPOs())
	for i := range out {
		l := n.PO(i)
		v := vals[l.Node()]
		if l.Compl() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// referenceExhaustiveEqual is ExhaustiveEqual frozen before the evaluator:
// one referenceSimulate per network and 64-pattern batch, with the
// stimulus built bit by bit.
func referenceExhaustiveEqual(a, b *xag.Network) error {
	if err := checkInterface(a, b); err != nil {
		return err
	}
	n := a.NumPIs()
	if n > 20 {
		return fmt.Errorf("sim: %d inputs too many for exhaustive check", n)
	}
	total := 1 << uint(n)
	batch := 64
	if total < batch {
		batch = total
	}
	in := make([]uint64, n)
	for base := 0; base < total; base += batch {
		for i := range in {
			in[i] = 0
		}
		for k := 0; k < batch && base+k < total; k++ {
			m := base + k
			for i := 0; i < n; i++ {
				if m>>uint(i)&1 == 1 {
					in[i] |= 1 << uint(k)
				}
			}
		}
		wa, wb := referenceSimulate(a, in), referenceSimulate(b, in)
		for po := range wa {
			if diff := wa[po] ^ wb[po]; diff != 0 {
				k := 0
				for diff>>uint(k)&1 == 0 {
					k++
				}
				m := base + k
				inputs := make([]bool, n)
				for i := range inputs {
					inputs[i] = m>>uint(i)&1 == 1
				}
				return &Counterexample{Inputs: inputs, PO: po}
			}
		}
	}
	return nil
}

// referenceRandomEqual is RandomEqual frozen before the evaluator.
func referenceRandomEqual(a, b *xag.Network, rounds int, seed uint64) error {
	if err := checkInterface(a, b); err != nil {
		return err
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	n := a.NumPIs()
	in := make([]uint64, n)
	for r := 0; r < rounds; r++ {
		for i := range in {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			in[i] = seed
		}
		wa, wb := referenceSimulate(a, in), referenceSimulate(b, in)
		for po := range wa {
			if diff := wa[po] ^ wb[po]; diff != 0 {
				k := 0
				for diff>>uint(k)&1 == 0 {
					k++
				}
				inputs := make([]bool, n)
				for i := range inputs {
					inputs[i] = in[i]>>uint(k)&1 == 1
				}
				return &Counterexample{Inputs: inputs, PO: po}
			}
		}
	}
	return nil
}

// recipe describes a network as data, so a single gate can be mutated. An
// operand indexes the signal list: 0 is constant false, then the inputs,
// then the gates in order.
type recipe struct {
	pis   int
	gates []recipeGate
	pos   []operand
}

type operand struct {
	sig   int
	compl bool
}

type recipeGate struct {
	and  bool
	a, b operand
}

func (r recipe) build() *xag.Network {
	n := xag.New()
	sigs := []xag.Lit{xag.Const0}
	for i := 0; i < r.pis; i++ {
		sigs = append(sigs, n.AddPI(""))
	}
	lit := func(o operand) xag.Lit { return sigs[o.sig].NotIf(o.compl) }
	for _, g := range r.gates {
		if g.and {
			sigs = append(sigs, n.And(lit(g.a), lit(g.b)))
		} else {
			sigs = append(sigs, n.Xor(lit(g.a), lit(g.b)))
		}
	}
	for _, o := range r.pos {
		n.AddPO(lit(o), "")
	}
	return n
}

// randomRecipe draws a network over pis inputs. Besides gate outputs, its
// outputs include constants and inputs, either polarity.
func randomRecipe(rng *rand.Rand, pis int) recipe {
	r := recipe{pis: pis}
	operandBelow := func(sigs int) operand {
		return operand{sig: rng.Intn(sigs), compl: rng.Intn(2) == 0}
	}
	gates := 1 + rng.Intn(3*pis+4)
	for i := 0; i < gates; i++ {
		sigs := 1 + pis + i
		// Favour recent signals so the outputs sit on deep cones.
		a := operand{sig: sigs - 1 - rng.Intn(min(sigs, 6)), compl: rng.Intn(2) == 0}
		r.gates = append(r.gates, recipeGate{and: rng.Intn(2) == 0, a: a, b: operandBelow(sigs)})
	}
	sigs := 1 + pis + gates
	for i := 0; i < 1+rng.Intn(4); i++ {
		switch rng.Intn(5) {
		case 0: // a constant
			r.pos = append(r.pos, operand{sig: 0, compl: rng.Intn(2) == 0})
		case 1: // an input, or the constant when there is none
			r.pos = append(r.pos, operand{sig: rng.Intn(pis + 1), compl: rng.Intn(2) == 0})
		default:
			r.pos = append(r.pos, operand{sig: sigs - 1 - rng.Intn(min(sigs, 4)), compl: rng.Intn(2) == 0})
		}
	}
	return r
}

// mutate returns r with one gate that an output reads changed: its kind
// flipped, one fanin complemented, or one fanin moved to another earlier
// signal. It returns r itself when no output reads a gate.
func (r recipe) mutate(rng *rand.Rand) recipe {
	used := make([]bool, 1+r.pis+len(r.gates))
	for _, o := range r.pos {
		used[o.sig] = true
	}
	var live []int
	for i := len(r.gates) - 1; i >= 0; i-- {
		if g := r.gates[i]; used[1+r.pis+i] {
			used[g.a.sig], used[g.b.sig] = true, true
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return r
	}
	m := r
	m.gates = append([]recipeGate(nil), r.gates...)
	i := live[rng.Intn(len(live))]
	g := &m.gates[i]
	switch rng.Intn(3) {
	case 0:
		g.and = !g.and
	case 1:
		g.b.compl = !g.b.compl
	default:
		g.a.sig = rng.Intn(1 + r.pis + i)
	}
	return m
}

// TestChecksMatchReference compares ExhaustiveEqual and RandomEqual with
// their frozen per-batch versions on random networks of 0–16 inputs and on
// single-gate mutants of them: both must accept the same pairs and name
// the same PO and inputs for every other pair.
func TestChecksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	differ, same := 0, 0
	for pis := 0; pis <= 16; pis++ {
		for trial := 0; trial < 8; trial++ {
			r := randomRecipe(rng, pis)
			a := r.build()
			others := []*xag.Network{a.Cleanup()}
			for k := 0; k < 3; k++ {
				others = append(others, r.mutate(rng).build())
			}
			for _, b := range others {
				want := referenceExhaustiveEqual(a, b)
				if got := ExhaustiveEqual(a, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d inputs, trial %d: ExhaustiveEqual = %v, reference %v", pis, trial, got, want)
				}
				if want == nil {
					same++
				} else {
					differ++
				}
				for _, seed := range []uint64{0, 1, rng.Uint64()} {
					rounds := 1 + rng.Intn(4)
					want := referenceRandomEqual(a, b, rounds, seed)
					if got := RandomEqual(a, b, rounds, seed); !reflect.DeepEqual(got, want) {
						t.Fatalf("%d inputs, trial %d, seed %d: RandomEqual = %v, reference %v",
							pis, trial, seed, got, want)
					}
				}
			}
		}
	}
	// Both verdicts must occur often, or the comparison proves little.
	if differ < 100 || same < 100 {
		t.Fatalf("%d differing and %d equivalent pairs; the generator lost its spread", differ, same)
	}
}

// TestExhaustiveEqualAllocs pins one evaluation setup per check: twice the
// inputs is 256 times the batches, and no more allocation.
func TestExhaustiveEqualAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	allocs := func(pis int) float64 {
		r := randomRecipe(rng, pis)
		a := r.build()
		b := a.Cleanup()
		return testing.AllocsPerRun(3, func() {
			if err := ExhaustiveEqual(a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a16 := allocs(8), allocs(16); a16 > a8 {
		t.Fatalf("ExhaustiveEqual allocates %.0f times at 16 inputs, %.0f at 8", a16, a8)
	}
}
