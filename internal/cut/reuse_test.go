package cut

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/xag"
)

func randomReuseNet(rng *rand.Rand, nPIs, nGates int) *xag.Network {
	return randomShiftedNet(rng, 0, nPIs, nGates)
}

// randomShiftedNet is randomReuseNet behind extra unused primary inputs,
// which come first: the compacted network is the same graph with every
// other node id shifted up by extra.
func randomShiftedNet(rng *rand.Rand, extra, nPIs, nGates int) *xag.Network {
	n := xag.New()
	for i := 0; i < extra; i++ {
		n.AddPI("")
	}
	lits := make([]xag.Lit, 0, nPIs+nGates)
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
	for i := 0; i < 4; i++ {
		n.AddPO(lits[len(lits)-1-i], "")
	}
	n.AddPO(lits[0], "pi0")
	return n.Cleanup()
}

func sameSets(t *testing.T, n *xag.Network, got, want *Set, label string) {
	t.Helper()
	for _, id := range n.LiveNodes() {
		g, w := got.For(id), want.For(id)
		if len(g) != len(w) {
			t.Fatalf("%s: node %d has %d cuts, want %d", label, id, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: node %d cut %d = %+v, want %+v", label, id, i, g[i], w[i])
			}
		}
	}
}

func countGates(n *xag.Network) int {
	gates := 0
	for _, id := range n.LiveNodes() {
		if n.IsGate(id) {
			gates++
		}
	}
	return gates
}

// allLeavesOK is a LeafOK slice that accepts every node of n as a leaf.
func allLeavesOK(n *xag.Network) []bool {
	ok := make([]bool, n.NumNodes())
	for i := range ok {
		ok[i] = true
	}
	return ok
}

// corrupted returns a copy of cs whose first cut computes the complement:
// a seed that is wrong for its node, so adopting it would show in the
// result.
func corrupted(cs []Cut) []Cut {
	out := append([]Cut(nil), cs...)
	out[0].Table = out[0].Table.Not()
	return out
}

// A nil seed re-merges every gate and reproduces the plain enumeration
// exactly, for any worker count.
func TestEnumerateIncrementalNilSeedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := randomReuseNet(rng, 6, 60)
		want := Enumerate(n, Params{})
		for _, workers := range []int{1, 2, 8} {
			got, computed, err := EnumerateIncremental(context.Background(), n, Params{}, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gates := countGates(n); computed != gates {
				t.Fatalf("workers=%d: re-merged %d gates, want %d", workers, computed, gates)
			}
			sameSets(t, n, got, want, "nil seed")
		}
	}
}

// Seeding every gate with its own list, with every leaf valid, re-merges
// nothing.
func TestEnumerateIncrementalSelfSeedReusesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := randomReuseNet(rng, 6, 60)
		want := Enumerate(n, Params{})
		slots := make([][]Cut, n.NumNodes())
		for _, id := range n.LiveNodes() {
			if n.IsGate(id) {
				slots[id] = want.For(id)
			}
		}
		seed := &Seed{Cuts: NewSetFrom(slots), LeafOK: allLeavesOK(n)}
		for _, workers := range []int{1, 4} {
			got, computed, err := EnumerateIncremental(context.Background(), n, Params{}, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if computed != 0 {
				t.Fatalf("workers=%d: re-merged %d gates, want 0", workers, computed)
			}
			sameSets(t, n, got, want, "self seed")
		}
	}
}

// Seeding a random subset of gates with their own lists matches the plain
// enumeration. A seeded gate is adopted without a re-merge exactly when
// neither fanin is an unseeded gate, whose re-merged list always counts as
// changed.
func TestEnumerateIncrementalSeededSubsetMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := randomReuseNet(rng, 6, 60)
		want := Enumerate(n, Params{})
		slots := make([][]Cut, n.NumNodes())
		for _, id := range n.LiveNodes() {
			if n.IsGate(id) && rng.Intn(2) == 0 {
				slots[id] = want.For(id)
			}
		}
		unseededGate := func(id int) bool { return n.IsGate(id) && slots[id] == nil }
		adopted := 0
		for _, id := range n.LiveNodes() {
			if slots[id] == nil {
				continue
			}
			if f0, f1 := n.Fanins(id); !unseededGate(f0.Node()) && !unseededGate(f1.Node()) {
				adopted++
			}
		}
		seed := &Seed{Cuts: NewSetFrom(slots), LeafOK: allLeavesOK(n)}
		for _, workers := range []int{1, 4} {
			got, computed, err := EnumerateIncremental(context.Background(), n, Params{}, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if want := countGates(n) - adopted; computed != want {
				t.Fatalf("workers=%d: re-merged %d gates, want %d", workers, computed, want)
			}
			sameSets(t, n, got, want, "seeded subset")
		}
	}
}

// A seeded gate is re-merged, and its wrong seed replaced by the true list,
// when a fanin's list was re-merged this call or a leaf of a fanin list
// fails LeafOK. Every seed but the victim's is right, so an adopted wrong
// seed shows as a difference from the plain enumeration.
func TestEnumerateIncrementalRemergesInvalidatedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n := randomReuseNet(rng, 6, 60)
		want := Enumerate(n, Params{})
		// Pick a gate whose first fanin is a gate, so it can be left unseeded.
		victim := -1
		for _, id := range n.LiveNodes() {
			if !n.IsGate(id) {
				continue
			}
			if f0, _ := n.Fanins(id); n.IsGate(f0.Node()) {
				victim = id
			}
		}
		if victim < 0 {
			t.Fatalf("trial %d: no gate with a gate fanin", trial)
		}
		f0, _ := n.Fanins(victim)
		fanin := f0.Node()

		cases := []struct {
			name    string
			prepare func(slots [][]Cut, leafOK []bool)
		}{
			{"fanin re-merged", func(slots [][]Cut, leafOK []bool) { slots[fanin] = nil }},
			{"leaf not ok", func(slots [][]Cut, leafOK []bool) { leafOK[fanin] = false }},
		}
		for _, tc := range cases {
			slots := make([][]Cut, n.NumNodes())
			for _, id := range n.LiveNodes() {
				if n.IsGate(id) {
					slots[id] = want.For(id)
				}
			}
			slots[victim] = corrupted(want.For(victim))
			leafOK := allLeavesOK(n)
			tc.prepare(slots, leafOK)
			seed := &Seed{Cuts: NewSetFrom(slots), LeafOK: leafOK}
			for _, workers := range []int{1, 4} {
				got, _, err := EnumerateIncremental(context.Background(), n, Params{}, workers, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameSets(t, n, got, want, tc.name)
			}
		}
	}
}

func TestAppendLeaves(t *testing.T) {
	n := randomReuseNet(rand.New(rand.NewSource(1)), 5, 20)
	s := Enumerate(n, Params{})
	for _, id := range n.LiveNodes() {
		for _, c := range s.For(id) {
			buf := c.AppendLeaves(nil)
			want := c.Leaves()
			if len(buf) != len(want) {
				t.Fatalf("AppendLeaves len %d, want %d", len(buf), len(want))
			}
			for i := range buf {
				if buf[i] != want[i] {
					t.Fatalf("AppendLeaves[%d] = %d, want %d", i, buf[i], want[i])
				}
			}
			// Appending must extend, not overwrite.
			pre := []int{-7}
			ext := c.AppendLeaves(pre)
			if ext[0] != -7 || len(ext) != len(want)+1 {
				t.Fatalf("AppendLeaves did not append: %v", ext)
			}
		}
	}
}

func TestAppendLeavesAllocs(t *testing.T) {
	c := trivial(5)
	buf := make([]int, 0, MaxK)
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendLeaves(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendLeaves allocates %.1f times per call, want 0", allocs)
	}
}

// TransformLeaves through a strictly monotone map with no complements
// leaves every table unchanged and must reproduce exactly a fresh
// enumeration of the isomorphic renumbered network.
func TestTransformLeavesShiftMatchesFreshEnumeration(t *testing.T) {
	const extra = 3
	n := randomShiftedNet(rand.New(rand.NewSource(23)), 0, 6, 40)
	shifted := randomShiftedNet(rand.New(rand.NewSource(23)), extra, 6, 40)
	s, fresh := Enumerate(n, Params{}), Enumerate(shifted, Params{})
	for _, id := range n.LiveNodes() {
		if id == 0 {
			continue // the constant node keeps id 0
		}
		cs := append([]Cut(nil), s.For(id)...)
		TransformLeaves(cs, func(l int) (int, bool) { return l + extra, false }, false)
		want := fresh.For(id + extra)
		if len(cs) != len(want) {
			t.Fatalf("node %d: %d cuts, fresh enumeration has %d", id, len(cs), len(want))
		}
		for i, c := range cs {
			if c.Table != s.For(id)[i].Table {
				t.Fatalf("node %d cut %d: table changed without complements", id, i)
			}
			if c != want[i] {
				t.Fatalf("node %d cut %d = %+v, fresh enumeration %+v", id, i, c, want[i])
			}
			if c.sig != sigOfLeaves(&c) {
				t.Fatalf("node %d cut %d: stale signature", id, i)
			}
		}
	}
}

func sigOfLeaves(c *Cut) uint64 {
	var sig uint64
	for i := 0; i < c.Size(); i++ {
		sig |= sigOf(int32(c.Leaf(i)))
	}
	return sig
}

// Steady-state enumeration allocations stay bounded: roughly one allocation
// per node (the kept list) once the scratch pool is warm.
func TestEnumerateAllocsBounded(t *testing.T) {
	n := randomReuseNet(rand.New(rand.NewSource(31)), 8, 120)
	Enumerate(n, Params{}) // warm the pool
	live := len(n.LiveNodes())
	allocs := testing.AllocsPerRun(5, func() {
		Enumerate(n, Params{})
	})
	if limit := float64(live*2 + 16); allocs > limit {
		t.Fatalf("Enumerate allocates %.0f times per run on %d live nodes, want <= %.0f",
			allocs, live, limit)
	}
}

// TransformLeaves with complemented images must rewrite each table so that
// the cut still describes the image node's function over the image leaves:
// flipping leaf j's polarity composes FlipVar(j), flipping the root
// composes Not. The identity transform must be a no-op, and two flips must
// cancel.
func TestTransformLeavesPolarity(t *testing.T) {
	n := randomReuseNet(rand.New(rand.NewSource(47)), 6, 50)
	s := Enumerate(n, Params{})
	for _, id := range n.LiveNodes() {
		orig := append([]Cut(nil), s.For(id)...)

		// Identity: same ids, no complements — tables unchanged.
		same := append([]Cut(nil), orig...)
		TransformLeaves(same, func(l int) (int, bool) { return l, false }, false)
		for i := range same {
			if same[i].Table != orig[i].Table || same[i].sig != orig[i].sig {
				t.Fatalf("node %d cut %d: identity transform changed the cut", id, i)
			}
		}

		// Complement every leaf and the root: each table must equal the
		// manual composition of FlipVar over all vars plus Not.
		flip := append([]Cut(nil), orig...)
		TransformLeaves(flip, func(l int) (int, bool) { return l, true }, true)
		for i := range flip {
			want := orig[i].Table
			for j := 0; j < orig[i].Size(); j++ {
				want = want.FlipVar(j)
			}
			want = want.Not()
			if flip[i].Table != want {
				t.Fatalf("node %d cut %d: flipped table %s, want %s", id, i, flip[i].Table, want)
			}
		}

		// Applying the same complement pattern twice restores the original.
		TransformLeaves(flip, func(l int) (int, bool) { return l, true }, true)
		for i := range flip {
			if flip[i].Table != orig[i].Table {
				t.Fatalf("node %d cut %d: double flip is not the identity", id, i)
			}
		}
	}
}
