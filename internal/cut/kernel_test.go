package cut

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/xag"
)

// kernelCircuits are the benchmark circuits the enumeration kernel is
// compared on against the frozen reference.
var kernelCircuits = []string{"md5", "speck-64-96", "sha-256-round", "multiplier", "adder-64", "voter"}

func buildCircuit(tb testing.TB, name string) *xag.Network {
	tb.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %s", name)
	}
	return bm.Build().Cleanup()
}

// depthRank ranks a cut by its deepest leaf's AND depth, as the depth cost
// model does, overwriting its argument as the engine's rank does.
func depthRank(n *xag.Network) func([]int) int {
	n.EnsureDepths()
	return func(leaves []int) int {
		r := 0
		for i, id := range leaves {
			leaves[i] = n.AndDepth(id)
			r = max(r, leaves[i])
		}
		return r
	}
}

// hashRank ranks a cut by a hash of its leaf set into [-3, 3]: a rank
// that is not monotone in the leaf set, so it can put a cut ahead of a
// subset of it and keeps ties between unrelated cuts.
func hashRank(seed uint64) func([]int) int {
	return func(leaves []int) int {
		h := 14695981039346656037 ^ seed
		for _, l := range leaves {
			h ^= uint64(l)
			h *= 1099511628211
		}
		return int(h%7) - 3
	}
}

// diffCuts returns a description of the first node whose cut list differs
// between got and want, or "" when every live node's list is equal.
func diffCuts(n *xag.Network, got, want *Set) string {
	for _, id := range n.LiveNodes() {
		g, w := got.For(id), want.For(id)
		if len(g) != len(w) {
			return fmt.Sprintf("node %d: %d cuts, reference %d", id, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Sprintf("node %d cut %d: %v %s, reference %v %s",
					id, i, g[i].Leaves(), g[i].Table, w[i].Leaves(), w[i].Table)
			}
		}
	}
	return ""
}

// TestNodeCutsMatchReference: the shipping kernel keeps the same cuts, in
// the same order, with the same tables, as the frozen reference kernel, on
// real circuits at every cut size and several budgets, unranked, ranked by
// depth and ranked by a hash that is not monotone in the leaf set.
func TestNodeCutsMatchReference(t *testing.T) {
	limits := []int{1, 4, 12, 20}
	circuits := kernelCircuits
	if raceEnabled {
		// The instrumented build is about ten times slower; the race check
		// needs the worker code, not every circuit.
		circuits, limits = []string{"sha-256-round", "voter"}, []int{1, 12}
	}
	for _, name := range circuits {
		n := buildCircuit(t, name)
		ranks := []struct {
			name string
			rank func([]int) int
		}{{"unranked", nil}, {"depth", depthRank(n)}, {"hash", hashRank(0)}}
		for k := 2; k <= MaxK; k++ {
			for _, limit := range limits {
				for _, r := range ranks {
					p := Params{K: k, Limit: limit, Rank: r.rank}
					if d := diffCuts(n, Enumerate(n, p), refEnumerate(n, p)); d != "" {
						t.Fatalf("%s K=%d Limit=%d %s: %s", name, k, limit, r.name, d)
					}
				}
			}
		}
	}
}

// Bounds of the networks FuzzEnumerate decodes: few enough inputs that the
// table check is exhaustive.
const (
	fuzzMaxPIs   = 8
	fuzzMaxGates = 64
)

// fuzzParams decodes enumeration parameters from the first three bytes:
// K in 2..6, Limit in 1..20, and a rank seed (0 is unranked, an odd seed
// ranks by depth, an even one by a hash of the leaf set).
func fuzzParams(n *xag.Network, data []byte) Params {
	var b [3]byte
	copy(b[:], data)
	p := Params{K: 2 + int(b[0])%(MaxK-1), Limit: 1 + int(b[1])%20}
	switch seed := b[2]; {
	case seed == 0:
	case seed%2 == 1:
		p.Rank = depthRank(n)
	default:
		p.Rank = hashRank(uint64(seed))
	}
	return p
}

// fuzzNetwork decodes fuzz bytes into a compact network. The first byte
// picks 1 to fuzzMaxPIs primary inputs. Each following 3-byte group adds
// one gate: the first byte selects AND or XOR (bit 0), complements either
// fanin (bits 1 and 2) and marks the gate as a primary output (bit 3); the
// other two pick the fanins among all earlier literals. The last literal is
// always an output.
func fuzzNetwork(data []byte) *xag.Network {
	n := xag.New()
	pis := 1
	if len(data) > 0 {
		pis += int(data[0]) % fuzzMaxPIs
		data = data[1:]
	}
	lits := make([]xag.Lit, 0, pis+fuzzMaxGates)
	for i := 0; i < pis; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for g := 0; g < fuzzMaxGates && len(data) >= 3; g++ {
		op := data[0]
		a := lits[int(data[1])%len(lits)].NotIf(op&2 != 0)
		b := lits[int(data[2])%len(lits)].NotIf(op&4 != 0)
		data = data[3:]
		var l xag.Lit
		if op&1 == 0 {
			l = n.And(a, b)
		} else {
			l = n.Xor(a, b)
		}
		lits = append(lits, l)
		if op&8 != 0 {
			n.AddPO(l, "")
		}
	}
	n.AddPO(lits[len(lits)-1], "")
	return n.Cleanup()
}

// checkTables fails unless every cut's table gives its root's value on
// every input assignment of n, which has at most fuzzMaxPIs inputs.
// TestCutTablesMatchSimulation and FuzzEnumerate share it.
func checkTables(t *testing.T, n *xag.Network, s *Set) {
	t.Helper()
	pis := n.NumPIs()
	for block := 0; block < max(1, 1<<pis/64); block++ {
		in := make([]uint64, pis)
		for bit := 0; bit < 64; bit++ {
			a := block*64 + bit
			for i := range in {
				in[i] |= uint64(a>>i&1) << bit
			}
		}
		vals := n.SimulateNodes(in)
		for _, id := range n.LiveNodes() {
			for ci := range s.For(id) {
				c := &s.For(id)[ci]
				for bit := 0; bit < 64; bit++ {
					var m uint
					for li := 0; li < c.Size(); li++ {
						m |= uint(vals[c.Leaf(li)]>>bit&1) << li
					}
					if c.Table.Eval(m) != (vals[id]>>bit&1 == 1) {
						t.Fatalf("node %d cut %v: table %s disagrees with simulation",
							id, c.Leaves(), c.Table)
					}
				}
			}
		}
	}
}

// FuzzEnumerate decodes a network of at most fuzzMaxPIs inputs, a cut size,
// a budget and a rank, and asserts that the enumeration equals the frozen
// reference and that every table matches exhaustive simulation.
func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{4, 3, 0, 2, 0, 0, 1, 1, 0, 1, 0, 2, 3})
	f.Add([]byte{4, 11, 1, 2,
		1, 0, 1, 9, 3, 2, 0, 0, 1, 0, 2, 3, 6, 5, 6, 0, 7, 7})
	f.Add([]byte{2, 0, 2, 7,
		0, 0, 1, 0, 2, 3, 0, 8, 9, 1, 10, 4, 6, 11, 5, 0, 12, 6,
		9, 13, 7, 0, 8, 9, 14, 15, 10, 1, 16, 11, 8, 17, 14, 0, 18, 19})
	f.Add([]byte{1, 3, 4, 7, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 8, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head []byte
		if len(data) >= 3 {
			head, data = data[:3], data[3:]
		}
		n := fuzzNetwork(data)
		p := fuzzParams(n, head)
		s := Enumerate(n, p)
		if d := diffCuts(n, s, refEnumerate(n, p)); d != "" {
			t.Fatalf("K=%d Limit=%d ranked=%v: %s", p.K, p.Limit, p.Rank != nil, d)
		}
		checkTables(t, n, s)
	})
}
