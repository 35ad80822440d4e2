// Package cut implements k-feasible cut enumeration on XAGs with priority
// cuts, as used by the rewriting algorithm of the paper (cut size K ≤ 6,
// bounded number of cuts per node, dominated cuts filtered). Each cut
// carries the truth table of its root expressed over the cut leaves.
package cut

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tt"
	"repro/internal/xag"
)

// MaxK is the largest supported cut size; functions of up to MaxK leaves fit
// in a single-word truth table.
const MaxK = tt.MaxVars

// Cut is a set of at most MaxK leaves together with the root function.
type Cut struct {
	leaves [MaxK]int32
	n      int8
	sig    uint64 // bloom signature of the leaf set
	Table  tt.T   // root function over leaves (leaf i ↦ variable i)
}

// Size returns the number of leaves.
func (c *Cut) Size() int { return int(c.n) }

// Leaf returns the node id of the i-th leaf (ascending order).
func (c *Cut) Leaf(i int) int { return int(c.leaves[i]) }

// Leaves returns the leaf node ids as a fresh slice. Hot paths should
// prefer AppendLeaves, which reuses the caller's buffer.
func (c *Cut) Leaves() []int {
	return c.AppendLeaves(make([]int, 0, c.n))
}

// AppendLeaves appends the leaf node ids (ascending) to dst and returns the
// extended slice, allocating only when dst lacks capacity.
func (c *Cut) AppendLeaves(dst []int) []int {
	for i := 0; i < int(c.n); i++ {
		dst = append(dst, int(c.leaves[i]))
	}
	return dst
}

func sigOf(id int32) uint64 { return 1 << uint(id%64) }

// dominates reports whether c's leaves are a subset of d's.
func (c *Cut) dominates(d *Cut) bool {
	if c.n > d.n || c.sig&^d.sig != 0 {
		return false
	}
	j := 0
	for i := 0; i < int(c.n); i++ {
		for j < int(d.n) && d.leaves[j] < c.leaves[i] {
			j++
		}
		if j == int(d.n) || d.leaves[j] != c.leaves[i] {
			return false
		}
	}
	return true
}

// merge unions two cuts if the result has at most k leaves.
func merge(a, b *Cut, k int) (Cut, bool) {
	var out Cut
	i, j := 0, 0
	for i < int(a.n) || j < int(b.n) {
		var next int32
		switch {
		case i == int(a.n):
			next = b.leaves[j]
			j++
		case j == int(b.n):
			next = a.leaves[i]
			i++
		case a.leaves[i] < b.leaves[j]:
			next = a.leaves[i]
			i++
		case a.leaves[i] > b.leaves[j]:
			next = b.leaves[j]
			j++
		default:
			next = a.leaves[i]
			i++
			j++
		}
		if int(out.n) == k {
			return Cut{}, false
		}
		out.leaves[out.n] = next
		out.n++
		out.sig |= sigOf(next)
	}
	return out, true
}

// position returns the index of leaf id in the cut, or -1.
func (c *Cut) position(id int32) int {
	for i := 0; i < int(c.n); i++ {
		if c.leaves[i] == id {
			return i
		}
	}
	return -1
}

// Params configures the enumeration.
type Params struct {
	K     int // maximum cut size, 2..MaxK (default 6)
	Limit int // maximum number of non-trivial cuts kept per node (default 12)

	// Rank, when set, ranks candidate cuts under the active cost model
	// before the per-node budget is applied: cuts with lower rank are kept
	// preferentially, with the default (size, leaf-order) ordering breaking
	// rank ties. A nil Rank keeps the default ordering exactly — the
	// priority-cut lists are bit-identical to an unranked enumeration.
	// Rank must be a pure function of the leaf set; it is called from
	// enumeration workers, once per candidate, with a scratch slice of the
	// candidate's leaf ids that it may overwrite (for instance with the
	// leaves' depths) and must not retain.
	Rank func(leaves []int) int
}

func (p Params) withDefaults() Params {
	if p.K == 0 {
		p.K = 6
	}
	if p.K < 2 || p.K > MaxK {
		panic("cut: K out of range")
	}
	if p.Limit == 0 {
		p.Limit = 12
	}
	return p
}

// Set holds the enumerated cuts of one network, indexed by node id. Slots
// of dead or never-enumerated nodes are nil. A Set is immutable after
// enumeration and safe for concurrent readers.
type Set struct {
	byID [][]Cut // node id → cuts (trivial cut last)
}

// For returns the cuts of a node (nil for dead or unknown nodes).
func (s *Set) For(id int) []Cut {
	if id < 0 || id >= len(s.byID) {
		return nil
	}
	return s.byID[id]
}

// NewSetFrom wraps slots (node id → cut list) in a Set without copying. It
// is the constructor of the incremental engine's seed sets; the caller must
// not mutate slots while the Set is in use.
func NewSetFrom(slots [][]Cut) *Set { return &Set{byID: slots} }

// TransformLeaves remaps the leaf ids of every cut in cs in place and
// recomputes the bloom signatures: img maps a leaf id to its new id plus
// whether the new node computes the leaf's complement, and rootCompl reports
// the same for the cut root. Tables are rewritten to stay correct over the
// new leaves: variable j is flipped when leaf j's image is complemented, and
// the whole table is complemented when rootCompl — so each transformed table
// is the new root's function over the new leaves. (For a trivial cut the two
// flips cancel, keeping it canonical.) img must be strictly monotone on the
// ids present for the lists to stay sorted; with no complements the tables
// are then unchanged.
func TransformLeaves(cs []Cut, img func(int) (int, bool), rootCompl bool) {
	for i := range cs {
		c := &cs[i]
		c.sig = 0
		for j := 0; j < int(c.n); j++ {
			v, compl := img(int(c.leaves[j]))
			c.leaves[j] = int32(v)
			c.sig |= sigOf(int32(v))
			if compl {
				c.Table = c.Table.FlipVar(j)
			}
		}
		if rootCompl {
			c.Table = c.Table.Not()
		}
	}
}

// Enumerate computes priority cuts for every live node of a network. The
// network must be compact (no pending substitutions), which holds for
// freshly built or Cleanup'ed networks.
func Enumerate(n *xag.Network, p Params) *Set {
	s, _ := EnumerateParallel(context.Background(), n, p, 1)
	return s
}

// ctxCheckStride bounds how many nodes are processed between cancellation
// checks; the per-node merge work dominates, so checking every few nodes
// keeps the cancellation latency small without measurable overhead.
const ctxCheckStride = 64

// scratch holds the per-worker buffers of enumeration: one gate's candidate
// cuts with the fanin cut pair each was merged from, and prune's rank, order
// and kept-index slices. Pooled so steady-state enumeration does one
// allocation per node (the kept cut list) instead of one per candidate
// batch.
type scratch struct {
	cand   []Cut      // feasible merges; their tables are not computed
	from   [][2]int32 // from[i]: the fanin cut indices cand[i] was merged from
	ranks  []int
	order  []int32
	keep   []int32
	leaves []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// nodeCuts computes the pruned cut list of one gate from the cut lists of
// its fanins. It only reads the (compact) network and the fanin slots of
// byID, so disjoint nodes can be processed concurrently.
//
// The work follows the cuts the gate keeps, not the fanin cut pairs it
// looks at. A pair is rejected before merging when its leaf signatures
// together set more than K bits: each set bit stands for at least one
// distinct leaf, so the merge would overflow. Truth tables are computed
// only for the cuts prune keeps, each from the fanin pair that produced it,
// which is the table a merge-time computation would have given that cut.
func nodeCuts(n *xag.Network, id int, byID [][]Cut, p Params, sc *scratch) []Cut {
	f0, f1 := n.Fanins(id)
	c0s := byID[f0.Node()]
	c1s := byID[f1.Node()]
	cand, from := sc.cand[:0], sc.from[:0]
	for i := range c0s {
		c0 := &c0s[i]
		for j := range c1s {
			c1 := &c1s[j]
			if bits.OnesCount64(c0.sig|c1.sig) > p.K {
				continue
			}
			m, ok := merge(c0, c1, p.K)
			if !ok {
				continue
			}
			cand = append(cand, m)
			from = append(from, [2]int32{int32(i), int32(j)})
		}
	}
	sc.cand, sc.from = cand, from
	keep := prune(cand, p, sc)
	isAnd := n.Kind(id) == xag.KindAnd
	out := make([]Cut, len(keep)+1)
	for oi, k := range keep {
		c := cand[k]
		c.Table = mergedTable(&c, &c0s[from[k][0]], &c1s[from[k][1]], f0.Compl(), f1.Compl(), isAnd)
		out[oi] = c
	}
	out[len(keep)] = trivial(id)
	return out
}

// EnumerateParallel is Enumerate with a bounded worker pool and
// cancellation: it checks ctx periodically and returns ctx's error (and a
// nil set) if the deadline expires or the context is canceled
// mid-enumeration. Nodes are processed level by level (a gate's level is
// one past its deepest fanin), so every worker only reads cut lists of
// strictly lower levels — finished before its level started — and writes
// its own node's slot. The result is identical to Enumerate for any worker
// count: each node's cut list is a pure function of its fanin cut lists.
func EnumerateParallel(ctx context.Context, n *xag.Network, p Params, workers int) (*Set, error) {
	s, _, err := EnumerateIncremental(ctx, n, p, workers, nil)
	return s, err
}

// Seed is the input of EnumerateIncremental: the previous round's cut lists
// renumbered into the current network's node ids, plus the per-node leaf
// validity computed by the caller.
type Seed struct {
	// Cuts holds the candidate seed lists by current node id (nil slot = no
	// seed for that node). Lists must already be renumbered: leaf ids are
	// current-network ids.
	Cuts *Set
	// LeafOK[id] reports that id is safe to appear as a leaf inside a
	// reused list: its renumbering since the seed round is order-preserving
	// against every other potential leaf, and — for ranked enumerations —
	// its Params.Rank contribution (e.g. its depth) is unchanged.
	LeafOK []bool
}

// EnumerateIncremental is EnumerateParallel with validated cross-round
// reuse and change-propagation early termination. A gate adopts its seed
// list without re-merging when neither fanin's list changed this round and
// every candidate leaf (every leaf of both fanin lists) passes seed.LeafOK.
// Other gates are re-merged and compared against their seed, so an
// unchanged result still stops the invalidation wave here instead of
// sweeping the whole fanout cone.
//
// Adoption trusts the seed of the gate itself: the check proves the merge
// inputs unchanged, not that the seed came from them. The result is
// bit-identical to a full enumeration, for any worker count, only when
// every seeded list was enumerated with the same Params for a structurally
// identical gate — same kind, with fanins that are the seed round's images
// of the current fanins — and then renumbered (TransformLeaves) into the
// current ids. A list taken from an unrelated gate can be adopted verbatim,
// for instance where both fanins are primary inputs, whose trivial lists
// never change. Within that precondition an out-of-date seed costs a
// re-merge, never a wrong cut.
//
// Returns the cut set and the number of gates actually re-merged. A nil seed
// re-merges every gate.
func EnumerateIncremental(ctx context.Context, n *xag.Network, p Params, workers int, seed *Seed) (*Set, int, error) {
	var seedSlots [][]Cut
	var leafOK []bool
	if seed != nil {
		if seed.Cuts != nil {
			seedSlots = seed.Cuts.byID
		}
		leafOK = seed.LeafOK
	}
	p = p.withDefaults()
	numNodes := n.NumNodes()
	res := &Set{byID: make([][]Cut, numNodes)}
	// changed[id]: id's final list is not known to equal its seed (always
	// true for unseeded gates).
	changed := make([]bool, numNodes)
	var computed int64

	// visit handles one gate: adopt the seed when allowed, else re-merge and
	// compare against the seed, so an unchanged list does not invalidate its
	// fanouts.
	visit := func(id int, sc *scratch) {
		var s []Cut
		if id < len(seedSlots) {
			s = seedSlots[id]
		}
		if s != nil {
			f0, f1 := n.Fanins(id)
			if seedReusable(res, changed, leafOK, f0.Node(), f1.Node()) {
				res.byID[id] = s
				return
			}
		}
		cs := nodeCuts(n, id, res.byID, p, sc)
		res.byID[id] = cs
		atomic.AddInt64(&computed, 1)
		changed[id] = !equalCuts(cs, s)
	}

	// Group the gates by level (one past the deepest fanin); PIs (and other
	// non-gates) get their trivial cut immediately and anchor level 0. Every
	// gate is visited: the reuse decision needs its fanins' changed flags,
	// final once their level is done.
	level := make([]int, numNodes)
	var byLevel [][]int
	for _, id := range n.LiveNodes() {
		if !n.IsGate(id) {
			res.byID[id] = []Cut{trivial(id)}
			continue
		}
		f0, f1 := n.Fanins(id)
		l := max(level[f0.Node()], level[f1.Node()]) + 1
		level[id] = l
		for len(byLevel) < l {
			byLevel = append(byLevel, nil)
		}
		byLevel[l-1] = append(byLevel[l-1], id)
	}

	// A level that has work for one worker only runs inline. All inline
	// levels of the call share one pooled scratch and keep the workers'
	// cancellation stride.
	var inline *scratch
	defer func() {
		if inline != nil {
			scratchPool.Put(inline)
		}
	}()
	for _, nodes := range byLevel {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		w := min(workers, len(nodes))
		if w <= 1 {
			if inline == nil {
				inline = scratchPool.Get().(*scratch)
			}
			for i, id := range nodes {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					return nil, 0, ctx.Err()
				}
				visit(id, inline)
			}
			continue
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := scratchPool.Get().(*scratch)
				defer scratchPool.Put(sc)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(nodes) {
						return
					}
					if i%ctxCheckStride == 0 && ctx.Err() != nil {
						return
					}
					visit(nodes[i], sc)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return res, int(computed), nil
}

// equalCuts reports whether two cut lists are identical (same cuts, same
// order, same tables).
func equalCuts(a, b []Cut) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedReusable decides the no-recompute path of EnumerateIncremental for
// one gate: both fanin lists unchanged and every leaf of both lists (the
// superset of all candidate leaves the merge can produce) valid per leafOK.
func seedReusable(res *Set, changed, leafOK []bool, f0, f1 int) bool {
	if changed[f0] || changed[f1] {
		return false
	}
	for _, f := range [2]int{f0, f1} {
		for ci := range res.byID[f] {
			c := &res.byID[f][ci]
			for k := 0; k < int(c.n); k++ {
				l := int(c.leaves[k])
				if l >= len(leafOK) || !leafOK[l] {
					return false
				}
			}
		}
	}
	return true
}

func trivial(id int) Cut {
	var c Cut
	c.leaves[0] = int32(id)
	c.n = 1
	c.sig = sigOf(int32(id))
	c.Table = tt.Var(0, 1)
	return c
}

// mergedTable computes the root function of the merged cut from the child
// cut tables.
func mergedTable(m, c0, c1 *Cut, compl0, compl1, isAnd bool) tt.T {
	n := int(m.n)
	// Positions live in fixed-size stack arrays: child leaves are sorted
	// sublists of the merged leaves, so the positions are strictly
	// increasing and RemapExpand takes its allocation-free swap-chain path.
	var pos0a, pos1a [MaxK]int
	pos0 := pos0a[:c0.n]
	for i := range pos0 {
		pos0[i] = m.position(c0.leaves[i])
	}
	pos1 := pos1a[:c1.n]
	for i := range pos1 {
		pos1[i] = m.position(c1.leaves[i])
	}
	t0 := c0.Table.RemapExpand(pos0, n)
	t1 := c1.Table.RemapExpand(pos1, n)
	if compl0 {
		t0 = t0.Not()
	}
	if compl1 {
		t1 = t1.Not()
	}
	if isAnd {
		return t0.And(t1)
	}
	return t0.Xor(t1)
}

// prune returns the indices of the candidates to keep, in order: the first
// p.Limit candidates in (model rank, size, leaf order) that no earlier kept
// candidate dominates. A repeated leaf set is dominated by its first copy,
// and equal leaf sets stay in candidate order, so the first fanin pair of a
// leaf set is the one kept. Without a Params.Rank all ranks are zero and
// the order is the classic (size, leaf order) one.
//
// Candidates are sorted by the integer key (rank, size) alone. A run of
// equal keys is put into leaf order only when the scan reaches it, so the
// wide candidates past the budget are never compared leaf by leaf. All
// slices live in the scratch.
func prune(cand []Cut, p Params, sc *scratch) []int32 {
	var ranks []int
	if p.Rank != nil {
		ranks = sc.ranks[:0]
		for i := range cand {
			sc.leaves = cand[i].AppendLeaves(sc.leaves[:0])
			ranks = append(ranks, p.Rank(sc.leaves))
		}
		sc.ranks = ranks
	}
	// Order by (rank, size): a stable counting sort by size and, when
	// ranked, a stable sort by rank; ties keep candidate order.
	var next [MaxK + 2]int32
	for i := range cand {
		next[cand[i].n+1]++
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	order := slices.Grow(sc.order[:0], len(cand))[:len(cand)]
	sc.order = order
	for i := range cand {
		s := cand[i].n
		order[next[s]] = int32(i)
		next[s]++
	}
	if ranks != nil {
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(ranks[a], ranks[b]) })
	}
	keep := sc.keep[:0]
	for lo := 0; lo < len(order) && len(keep) != p.Limit; {
		hi := lo + 1
		for hi < len(order) && cand[order[hi]].n == cand[order[lo]].n &&
			(ranks == nil || ranks[order[hi]] == ranks[order[lo]]) {
			hi++
		}
		run := order[lo:hi]
		slices.SortFunc(run, func(a, b int32) int {
			ca, cb := &cand[a], &cand[b]
			if c := slices.Compare(ca.leaves[:ca.n], cb.leaves[:cb.n]); c != 0 {
				return c
			}
			return cmp.Compare(a, b) // equal leaf sets keep candidate order
		})
	scan:
		for _, i := range run {
			for _, j := range keep {
				if cand[j].dominates(&cand[i]) {
					continue scan
				}
			}
			keep = append(keep, i)
			if len(keep) == p.Limit {
				break
			}
		}
		lo = hi
	}
	sc.keep = keep
	return keep
}
