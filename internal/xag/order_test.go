package xag

import (
	"math/rand"
	"testing"
)

// refInTFI is the reference for InTFI: a plain depth-first walk over the
// whole resolved transitive fanin of l, with no pruning.
func refInTFI(n *Network, l Lit, target int) bool {
	seen := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		if id == target {
			return true
		}
		if seen[id] || !n.IsGate(id) {
			return false
		}
		seen[id] = true
		f0, f1 := n.Fanins(id)
		return walk(f0.Node()) || walk(f1.Node())
	}
	return walk(n.Resolve(l).Node())
}

// checkOrder asserts the label invariant InTFIScratch prunes with: inputs
// and the constant are labelled 0, and every resolved fanin of every
// unsubstituted gate, live or dead, is labelled strictly below the gate.
func checkOrder(t *testing.T, n *Network, step string) {
	t.Helper()
	for id := range n.nodes {
		if !n.IsGate(id) {
			if n.ord[id] != 0 {
				t.Fatalf("%s: non-gate %d labelled %d, want 0", step, id, n.ord[id])
			}
			continue
		}
		if n.repl[id].Node() != id {
			continue // substituted: no walk reaches it
		}
		f0, f1 := n.Fanins(id)
		for _, f := range [2]Lit{f0, f1} {
			if n.ord[f.Node()] >= n.ord[id] {
				t.Fatalf("%s: fanin %d of gate %d labelled %d, not below %d",
					step, f.Node(), id, n.ord[f.Node()], n.ord[id])
			}
		}
	}
}

// checkInTFI compares InTFIScratch from l with the reference for every
// target node of the network.
func checkInTFI(t *testing.T, n *Network, l Lit, s *TFIScratch, step string) {
	t.Helper()
	for target := 0; target < n.NumNodes(); target++ {
		want := refInTFI(n, l, target)
		if got := n.InTFIScratch(l, target, s); got != want {
			t.Fatalf("%s: InTFIScratch(%v, %d) = %v, reference walk says %v",
				step, l, target, got, want)
		}
	}
}

// TestInTFIOrderedAfterSubstitute: through random substitution sequences —
// replacements are random live nodes, often labelled above the node they
// replace — interleaved with gate construction that revives dead gates
// through structural hashing, and with Clone and Cleanup, the pruned query
// agrees with the reference walk and the label invariant holds on every
// edge.
func TestInTFIOrderedAfterSubstitute(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var s TFIScratch
	breaks := 0
	for trial := 0; trial < 12; trial++ {
		n := randomDepthNetwork(rng, 4+rng.Intn(4), 40+rng.Intn(60))
		checkOrder(t, n, "fresh")
		for op := 0; op < 40; op++ {
			switch rng.Intn(12) {
			case 0:
				n = n.Clone()
				checkOrder(t, n, "after clone")
			case 1:
				n = n.Cleanup()
				checkOrder(t, n, "after cleanup")
			}
			if rng.Intn(3) == 0 {
				// Build over any unsubstituted node, dead ones included, as
				// realizing a replacement does.
				a := n.Resolve(MakeLit(rng.Intn(n.NumNodes()), rng.Intn(2) == 0))
				b := n.Resolve(MakeLit(rng.Intn(n.NumNodes()), rng.Intn(2) == 0))
				if rng.Intn(2) == 0 {
					n.And(a, b)
				} else {
					n.Xor(a, b)
				}
				checkOrder(t, n, "after build")
				continue
			}
			live := n.LiveNodes()
			var gates []int
			for _, id := range live {
				if n.IsGate(id) {
					gates = append(gates, id)
				}
			}
			if len(gates) == 0 {
				break
			}
			old := gates[rng.Intn(len(gates))]
			repl := n.Resolve(MakeLit(live[rng.Intn(len(live))], rng.Intn(2) == 0))
			if repl.Node() == old || refInTFI(n, repl, old) {
				continue // would create a combinational cycle
			}
			if n.ord[repl.Node()] >= n.ord[old] {
				breaks++
			}
			n.Substitute(old, repl)
			checkOrder(t, n, "after substitute")
			for q := 0; q < 40; q++ {
				l := MakeLit(rng.Intn(n.NumNodes()), rng.Intn(2) == 0)
				target := rng.Intn(n.NumNodes())
				if got, want := n.InTFIScratch(l, target, &s), refInTFI(n, l, target); got != want {
					t.Fatalf("trial %d: InTFIScratch(%v, %d) = %v, reference walk says %v",
						trial, l, target, got, want)
				}
			}
			checkInTFI(t, n, repl, &s, "from the replacement")
		}
	}
	if breaks == 0 {
		t.Fatal("no substitution replaced a node by a higher-labelled one")
	}
}

// TestInTFIOrderBranches reaches both repairs Substitute makes when a
// replacement is labelled at or above the node it replaces: first a full
// relabel (no lowering can get a gate over inputs below label 1), then a
// cone lowering on the spaced labels the relabel left.
func TestInTFIOrderBranches(t *testing.T) {
	n := New()
	a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
	x := n.Xor(a, b)
	gates := []Lit{n.And(a, c), n.And(b, c), n.Xor(a, c)}
	n.AddPO(x, "x")
	for _, g := range gates {
		n.AddPO(g, "")
	}
	var s TFIScratch

	// Every gate sits on the inputs, so all are labelled 1.
	y := gates[0]
	if n.ord[x.Node()] != 1 || n.ord[y.Node()] != 1 {
		t.Fatalf("fresh labels %d, %d, want 1, 1", n.ord[x.Node()], n.ord[y.Node()])
	}
	n.Substitute(x.Node(), y)
	checkOrder(t, n, "full relabel")
	for _, g := range gates {
		if l := n.ord[g.Node()]; l == 0 || l%(1<<32) != 0 {
			t.Fatalf("gate %d labelled %#x after the full relabel, want a nonzero multiple of 1<<32", g.Node(), l)
		}
	}
	for _, po := range []Lit{n.PO(0), n.PO(1)} {
		checkInTFI(t, n, po, &s, "after full relabel")
	}

	// Replace the lower-labelled of the two remaining gates by the higher
	// one: lowering its cone drops it to 1 and leaves every other label.
	old, repl := gates[1].Node(), gates[2]
	if n.ord[old] > n.ord[repl.Node()] {
		old, repl = repl.Node(), gates[1]
	}
	before := append([]uint64(nil), n.ord...)
	n.Substitute(old, repl)
	checkOrder(t, n, "cone lowering")
	if n.ord[repl.Node()] != 1 {
		t.Fatalf("replacement labelled %#x after lowering, want 1", n.ord[repl.Node()])
	}
	for id := range n.ord {
		if id != repl.Node() && n.ord[id] != before[id] {
			t.Fatalf("lowering relabelled node %d outside the replacement's cone: %#x -> %#x",
				id, before[id], n.ord[id])
		}
	}
	for i := 0; i < n.NumPOs(); i++ {
		checkInTFI(t, n, n.PO(i), &s, "after lowering")
	}
}

// TestInTFIPrunedCost pins what the labels buy: in a deep chain, a query
// from a gate built just above the target walks only the gates labelled
// above the target, not the chain below it.
func TestInTFIPrunedCost(t *testing.T) {
	n := New()
	pis := []Lit{n.AddPI("a"), n.AddPI("b"), n.AddPI("c")}
	chain := []Lit{pis[0]}
	for i := 1; i < 2000; i++ {
		prev := chain[len(chain)-1]
		if i%2 == 0 {
			chain = append(chain, n.And(prev, pis[i%3]))
		} else {
			chain = append(chain, n.Xor(prev, pis[i%3]))
		}
	}
	n.AddPO(chain[len(chain)-1], "o")
	target := chain[1500].Node()
	// Two gates over the target's fanin: the upper one is labelled above
	// the target, the lower one level with it.
	above := n.Xor(n.And(chain[1499], pis[2]), pis[1])

	var s TFIScratch
	stamps := func() int {
		k := 0
		for _, v := range s.stamp {
			if v == s.epoch {
				k++
			}
		}
		return k
	}
	if n.InTFIScratch(above, target, &s) {
		t.Fatal("target reported in the cone of a gate built beside it")
	}
	if k := stamps(); k > 4 {
		t.Fatalf("query from a gate above the target visited %d gates, want at most 4", k)
	}
	if !n.InTFIScratch(chain[1502], target, &s) {
		t.Fatal("target missed in the cone of a chain gate above it")
	}
	if k := stamps(); k > 4 {
		t.Fatalf("query two gates above the target visited %d gates, want at most 4", k)
	}
	if refInTFI(n, above, target) || !refInTFI(n, chain[1502], target) {
		t.Fatal("reference walk disagrees with the expected answers")
	}
}

// FuzzSubstituteOrder drives the label upkeep with arbitrary build and
// substitution sequences: the input decodes into at most 8 primary inputs,
// 64 gate constructions and 32 substitutions, skipping any substitution the
// reference walk says would close a cycle. After each substitution the
// pruned query must agree with the reference for every target node, queried
// from the replacement and from each primary output, and the label
// invariant must hold.
func FuzzSubstituteOrder(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 4, 0, 3, 0, 2, 3, 4, 1, 2, 0x80, 4, 5})
	f.Add([]byte{3, 8, 0, 1, 12, 1, 2, 0, 3, 4, 4, 5, 6, 0x81, 6, 4, 0x80, 5, 7, 9, 7, 2, 0x80, 8, 3})
	f.Add([]byte("substitute-order-seed-with-several-steps"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := New()
		for i := 0; i < 1+int(data[0]%8); i++ {
			n.AddPI("")
		}
		var s TFIScratch
		built, subs := 0, 0
		for p := 1; p+2 < len(data) && (built < 64 || subs < 32); p += 3 {
			op, x, y := data[p], int(data[p+1]), int(data[p+2])
			if op&0x80 == 0 || n.NumPOs() == 0 {
				if built == 64 {
					continue
				}
				built++
				a := n.Resolve(MakeLit(x%n.NumNodes(), op&1 == 1))
				b := n.Resolve(MakeLit(y%n.NumNodes(), op&2 == 2))
				var g Lit
				if op&4 == 0 {
					g = n.And(a, b)
				} else {
					g = n.Xor(a, b)
				}
				if op&8 == 8 || n.NumPOs() == 0 {
					if n.NumPOs() < 8 {
						n.AddPO(g, "")
					}
				}
				checkOrder(t, n, "after build")
				continue
			}
			if subs == 32 {
				continue
			}
			old := x % n.NumNodes()
			if !n.IsGate(old) || n.repl[old].Node() != old {
				continue
			}
			repl := n.Resolve(MakeLit(y%n.NumNodes(), op&1 == 1))
			if repl.Node() == old || refInTFI(n, repl, old) {
				continue // would close a cycle
			}
			subs++
			n.Substitute(old, repl)
			checkOrder(t, n, "after substitute")
			checkInTFI(t, n, repl, &s, "from the replacement")
			for i := 0; i < n.NumPOs(); i++ {
				checkInTFI(t, n, n.PO(i), &s, "from an output")
			}
		}
	})
}
