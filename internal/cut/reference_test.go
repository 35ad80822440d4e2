package cut

// A frozen copy of the enumeration kernel as it was before signature
// rejection, deferred truth tables and lazy ordering: refNodeCuts merges
// every fanin cut pair, computes a table for every feasible merge and sorts
// all candidates before pruning. TestNodeCutsMatchReference, FuzzEnumerate
// and BenchmarkEnumerateReference compare the shipping kernel against it.
//
// The copy is verbatim but for one line: refSorter breaks a full tie, two
// candidates with the same leaf set, by candidate index, where sort.Sort
// left the order to its pivoting. The tie matters because two fanin pairs
// can merge into one leaf set with different tables: when a leaf of the set
// lies inside the cone of another, one pair computes it from the leaves
// below and the other reads it as a free variable. The tables agree on
// every assignment the network can produce, so either is a correct cut
// function, but they differ as bytes. With the tie-break the first fanin
// pair wins, as in the shipping kernel. Such a leaf set is dominated by the
// set without the inner leaf, so it is kept only when that smaller set is
// not a candidate or ranks later. On the circuits of
// TestNodeCutsMatchReference, unranked or depth-ranked at every K and Limit
// the test uses, no kept cut had such a twin, so there the reference is the
// old kernel exactly; only the hashed rank keeps them.

import (
	"sort"

	"repro/internal/xag"
)

type refScratch struct {
	cand   []Cut
	ranks  []int
	keep   []int
	leaves []int
	sorter refSorter
}

type refSorter struct {
	idx     []int
	cand    []Cut
	ranks   []int
	hasRank bool
}

func (s *refSorter) Len() int      { return len(s.idx) }
func (s *refSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *refSorter) Less(a, b int) bool {
	i, j := s.idx[a], s.idx[b]
	if s.hasRank && s.ranks[i] != s.ranks[j] {
		return s.ranks[i] < s.ranks[j]
	}
	ci, cj := &s.cand[i], &s.cand[j]
	if ci.n != cj.n {
		return ci.n < cj.n
	}
	for k := 0; k < int(ci.n); k++ {
		if ci.leaves[k] != cj.leaves[k] {
			return ci.leaves[k] < cj.leaves[k]
		}
	}
	return i < j // the one change: equal leaf sets keep candidate order
}

func refNodeCuts(n *xag.Network, id int, byID [][]Cut, p Params, sc *refScratch) []Cut {
	f0, f1 := n.Fanins(id)
	c0s := byID[f0.Node()]
	c1s := byID[f1.Node()]
	isAnd := n.Kind(id) == xag.KindAnd
	cand := sc.cand[:0]
	for i := range c0s {
		for j := range c1s {
			m, ok := merge(&c0s[i], &c1s[j], p.K)
			if !ok {
				continue
			}
			m.Table = mergedTable(&m, &c0s[i], &c1s[j], f0.Compl(), f1.Compl(), isAnd)
			cand = append(cand, m)
		}
	}
	sc.cand = cand
	return refPrune(cand, p, id, sc)
}

func refPrune(cand []Cut, p Params, id int, sc *refScratch) []Cut {
	hasRank := p.Rank != nil
	ranks := sc.ranks[:0]
	if hasRank {
		for i := range cand {
			sc.leaves = cand[i].AppendLeaves(sc.leaves[:0])
			ranks = append(ranks, p.Rank(sc.leaves))
		}
		sc.ranks = ranks
	}
	st := &sc.sorter
	idx := st.idx[:0]
	for i := range cand {
		idx = append(idx, i)
	}
	st.idx, st.cand, st.ranks, st.hasRank = idx, cand, ranks, hasRank
	sort.Sort(st)
	st.cand, st.ranks = nil, nil
	keep := sc.keep[:0]
	for _, i := range idx {
		c := &cand[i]
		dup := false
		for _, j := range keep {
			if cand[j].dominates(c) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		keep = append(keep, i)
		if len(keep) == p.Limit {
			break
		}
	}
	sc.keep = keep
	out := make([]Cut, len(keep)+1)
	for oi, i := range keep {
		out[oi] = cand[i]
	}
	out[len(keep)] = trivial(id)
	return out
}

// refEnumerate enumerates every live node of a compact network with the
// reference kernel, in id order, which is topological.
func refEnumerate(n *xag.Network, p Params) *Set {
	p = p.withDefaults()
	s := &Set{byID: make([][]Cut, n.NumNodes())}
	sc := new(refScratch)
	for _, id := range n.LiveNodes() {
		if !n.IsGate(id) {
			s.byID[id] = []Cut{trivial(id)}
			continue
		}
		s.byID[id] = refNodeCuts(n, id, s.byID, p, sc)
	}
	return s
}
