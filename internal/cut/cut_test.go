package cut

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tt"
	"repro/internal/xag"
)

func buildFullAdder() (*xag.Network, [3]xag.Lit, xag.Lit, xag.Lit) {
	n := xag.New()
	a, b, cin := n.AddPI("a"), n.AddPI("b"), n.AddPI("cin")
	ab := n.Xor(a, b)
	sum := n.Xor(ab, cin)
	cout := n.Or(n.And(a, b), n.And(cin, ab))
	n.AddPO(sum, "sum")
	n.AddPO(cout, "cout")
	return n, [3]xag.Lit{a, b, cin}, sum, cout
}

func TestFullAdderCoutCutIsMajority(t *testing.T) {
	n, pis, _, cout := buildFullAdder()
	s := Enumerate(n, Params{K: 6, Limit: 12})
	cuts := s.For(cout.Node())
	if len(cuts) == 0 {
		t.Fatalf("no cuts for cout")
	}
	want := map[int]bool{pis[0].Node(): true, pis[1].Node(): true, pis[2].Node(): true}
	found := false
	for i := range cuts {
		c := &cuts[i]
		if c.Size() != 3 {
			continue
		}
		ok := true
		for j := 0; j < 3; j++ {
			if !want[c.Leaf(j)] {
				ok = false
			}
		}
		if !ok {
			continue
		}
		found = true
		// The paper: the cout cut over {a,b,cin} implements MAJ = 0xe8,
		// possibly complemented on the root literal — here the root node is
		// the OR realized as complemented AND, so the node function is the
		// complement ¬MAJ = 0x17.
		got := c.Table
		if cout.Compl() {
			got = got.Not()
		}
		if got != tt.New(0xe8, 3) {
			t.Fatalf("cout cut table = %s, want e8 (maj)", got)
		}
	}
	if !found {
		t.Fatalf("cut {a,b,cin} not enumerated for cout")
	}
}

func TestTrivialCutsOnPIs(t *testing.T) {
	n, pis, _, _ := buildFullAdder()
	s := Enumerate(n, Params{})
	for _, pi := range pis {
		cuts := s.For(pi.Node())
		if len(cuts) != 1 || cuts[0].Size() != 1 || cuts[0].Leaf(0) != pi.Node() {
			t.Fatalf("PI cut set wrong: %+v", cuts)
		}
	}
}

// randomNetwork builds a random XAG over nPIs inputs with nGates gates.
func randomNetwork(rng *rand.Rand, nPIs, nGates int) *xag.Network {
	n := xag.New()
	lits := make([]xag.Lit, 0, nPIs+nGates)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		var g xag.Lit
		if rng.Intn(2) == 0 {
			g = n.And(a, b)
		} else {
			g = n.Xor(a, b)
		}
		lits = append(lits, g)
	}
	// Use the last few literals as outputs so most of the graph is live.
	for i := 0; i < 4 && i < len(lits); i++ {
		n.AddPO(lits[len(lits)-1-i], "")
	}
	return n.Cleanup()
}

// TestCutTablesMatchSimulation checks, on random networks, that every
// enumerated cut's truth table agrees with exhaustive simulation: for every
// input assignment, root value == Table(leaf values).
func TestCutTablesMatchSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := randomNetwork(rng, 6, 80)
		checkTables(t, n, Enumerate(n, Params{K: 6, Limit: 12}))
	}
}

func TestCutSizeRespectsK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := randomNetwork(rng, 10, 150)
	for _, k := range []int{2, 3, 4, 5, 6} {
		s := Enumerate(n, Params{K: k, Limit: 12})
		for id, cuts := range s.byID {
			for i := range cuts {
				if cuts[i].Size() > k {
					t.Fatalf("K=%d: node %d has cut of size %d", k, id, cuts[i].Size())
				}
			}
		}
	}
}

func TestCutLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := randomNetwork(rng, 10, 150)
	for _, limit := range []int{1, 4, 12} {
		s := Enumerate(n, Params{K: 6, Limit: limit})
		for id, cuts := range s.byID {
			if len(cuts) > limit+1 { // +1 for the trivial cut
				t.Fatalf("limit %d: node %d has %d cuts", limit, id, len(cuts))
			}
		}
	}
}

func TestNoDominatedCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := randomNetwork(rng, 8, 100)
	s := Enumerate(n, Params{K: 5, Limit: 12})
	for id, cuts := range s.byID {
		if len(cuts) == 0 {
			continue // dead node slot
		}
		// Exclude the trailing trivial cut from the check: it is kept for
		// merging even when dominated.
		nt := cuts[:len(cuts)-1]
		for i := range nt {
			for j := range nt {
				if i != j && nt[i].dominates(&nt[j]) {
					t.Fatalf("node %d: cut %v dominates kept cut %v",
						id, nt[i].Leaves(), nt[j].Leaves())
				}
			}
		}
	}
}

func TestLeavesSortedAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n := randomNetwork(rng, 8, 100)
	s := Enumerate(n, Params{})
	for id, cuts := range s.byID {
		for ci := range cuts {
			c := &cuts[ci]
			for i := 1; i < c.Size(); i++ {
				if c.Leaf(i-1) >= c.Leaf(i) {
					t.Fatalf("node %d cut %d: leaves not strictly sorted: %v",
						id, ci, c.Leaves())
				}
			}
		}
	}
}

func TestMergeOverflow(t *testing.T) {
	var a, b Cut
	for i := 0; i < 4; i++ {
		a.leaves[a.n] = int32(i)
		a.n++
		a.sig |= sigOf(int32(i))
		b.leaves[b.n] = int32(10 + i)
		b.n++
		b.sig |= sigOf(int32(10 + i))
	}
	if _, ok := merge(&a, &b, 6); ok {
		t.Fatalf("merge should overflow K=6 with 8 distinct leaves")
	}
	m, ok := merge(&a, &a, 6)
	if !ok || m.Size() != 4 {
		t.Fatalf("self-merge failed: %v %d", ok, m.Size())
	}
}

// TestEnumerateParallelMatchesSequential checks that the level-parallel
// enumeration produces exactly the same cut sets (same order, same tables)
// as the sequential one, for several worker counts.
func TestEnumerateParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		n := randomNetwork(rng, 8, 200)
		seq := Enumerate(n, Params{K: 6, Limit: 12})
		for _, workers := range []int{2, 3, 8} {
			par, err := EnumerateParallel(context.Background(), n, Params{K: 6, Limit: 12}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par.byID) != len(seq.byID) {
				t.Fatalf("workers=%d: %d slots, want %d", workers, len(par.byID), len(seq.byID))
			}
			for id := range seq.byID {
				if !reflect.DeepEqual(par.byID[id], seq.byID[id]) {
					t.Fatalf("trial %d workers=%d: node %d cuts differ", trial, workers, id)
				}
			}
		}
	}
}

func TestEnumerateParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	n := randomNetwork(rng, 8, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s, err := EnumerateParallel(ctx, n, Params{}, 4); err == nil || s != nil {
		t.Fatalf("canceled enumeration returned s=%v err=%v", s, err)
	}

	// One worker runs every level inline. A cancellation inside one wide
	// level must stop it there instead of after the whole level: 120 gates
	// over pairs of 16 inputs all sit at level 1, and Rank, called once per
	// gate (each has a single candidate), counts the gates visited.
	wide := xag.New()
	var pis []xag.Lit
	for i := 0; i < 16; i++ {
		pis = append(pis, wide.AddPI(""))
	}
	gates := 0
	for i := range pis {
		for j := i + 1; j < len(pis); j++ {
			wide.AddPO(wide.And(pis[i], pis[j]), "")
			gates++
		}
	}
	visited := 0
	p := Params{Rank: func([]int) int { visited++; return 0 }}
	s, err := EnumerateParallel(&errAfter{Context: context.Background(), limit: 1}, wide, p, 1)
	if err == nil || s != nil {
		t.Fatalf("single-worker enumeration canceled mid-level returned s=%v err=%v", s, err)
	}
	if visited >= gates {
		t.Fatalf("single-worker enumeration visited all %d gates of the canceled level", gates)
	}
}

// errAfter is a context whose Err turns to context.Canceled after limit
// calls, which places a cancellation deterministically inside a walk.
type errAfter struct {
	context.Context
	calls, limit int
}

func (c *errAfter) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}
