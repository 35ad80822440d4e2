package core

import (
	"math"

	"repro/internal/cut"
	"repro/internal/xag"
)

// incState carries per-node facts from one Minimize round into the next:
// the cut lists of nodes the previous round's commits left locally
// untouched, plus the leaf-validity data the next round needs to decide
// which seeds are provably reusable. It is a pure cache — a seed is
// consumed only when reusing it is proven identical to recomputing it
// (DESIGN.md §10), so seeded rounds commit bit-identical networks.
// Invalidated (valid=false) after an interrupted or rolled-back round; the
// next round then runs the full pipeline and refills it.
type incState struct {
	valid  bool
	cuts   *cut.Set // seed cut lists, indexed by next round's node ids
	leafOK []bool   // leafOK[id]: id's renumbering was order-preserving
	depth  []int    // round-start depth by new id (-1 absent); nil unless ranked
}

// seed returns the cut seed for net, the network the carried lists were
// renumbered into. Under a ranked enumeration a leaf is only safe if its
// depth — the rank input — matches the snapshot the seed was pruned with.
func (inc *incState) seed(net *xag.Network, ranked bool) *cut.Seed {
	leafOK := inc.leafOK
	if ranked {
		leafOK = make([]bool, len(inc.leafOK))
		for id := range leafOK {
			leafOK[id] = inc.leafOK[id] && inc.depth != nil && id < len(inc.depth) &&
				inc.depth[id] == net.AndDepth(id)
		}
	}
	return &cut.Seed{Cuts: inc.cuts, LeafOK: leafOK}
}

// carryState distills the finished round into seeds for the next one.
//
// old is the pre-Cleanup network after the commit stage, out its compacted
// image, m the old→new literal map from CleanupMap, cuts the round's
// enumeration (indexed by old ids), depths the round-start depth snapshot
// (nil for models without depth ranking), and base the node count when the
// commit stage began: every id at or above it is a gate the commits built.
//
// A gate's cut list is carried only when it can still describe the same
// structure in out:
//
//   - the gate is locally clean — below base, and both stored fanin edges
//     still resolve to themselves — so the node and its immediate wiring are
//     unchanged. The gate itself was not substituted: the walk over
//     old.LiveNodes() resolves every edge, so it never reaches such a node;
//   - the gate's image is a gate of the same kind whose fanins are the
//     images of the old fanins (in either order), and each fanin kept its
//     gate/input nature — deep substitutions can violate any of these even
//     for a locally clean gate: equal fanin images can collapse the gate, a
//     fanin gate can fold onto an input;
//   - the gate and every leaf of every kept cut survived Cleanup, so the
//     lists renumber into the new id space without losing a variable.
//
// Complemented images are allowed: the rebuild's XOR normalization floats
// complements toward the outputs, so one local substitution can flip the
// images of a whole XOR cone above it without changing its structure.
// TransformLeaves rewrites the tables for the flipped polarities (each
// carried table is the image node's function over the image leaves), which
// keeps the cut seeds valid.
//
// Whether a carried seed may then be consumed without recomputation is the
// next round's decision (cut.EnumerateIncremental): it requires the fanin
// lists to be unchanged and every candidate leaf to pass leafOK — the
// order-preservation flag computed here (new id above every earlier and
// below every later survivor's, so all leaf-id comparisons inside merge,
// prune tie-breaks, and subsumption come out the same) — plus, for ranked
// runs, an unchanged depth. Seeds that fail are simply recomputed and
// compared, which costs time, never correctness.
func (e *Engine) carryState(inc *incState, old, out *xag.Network, m []xag.Lit, cuts *cut.Set, depths []int, base int) {
	inc.valid = false
	inc.cuts, inc.leafOK, inc.depth = nil, nil, nil
	defer func() {
		if r := recover(); r != nil {
			inc.valid = false
			inc.cuts, inc.leafOK, inc.depth = nil, nil, nil
			e.logf("core: incremental reuse disabled this round after panic: %v", r)
		}
	}()

	numOld := old.NumNodes()
	numNew := out.NumNodes()

	// Survivors: nodes below base that kept a node image (of either
	// polarity) across Cleanup, in ascending old-id order. Only their images
	// can serve as seed leaves — seed lists were enumerated before the
	// commit stage built anything — so nodes created by the round's commits
	// (which Cleanup renumbers into the middle of the id space) are excluded
	// from the order universe: their scrambled placement is irrelevant to
	// every comparison a seeded re-merge can perform.
	imgNode := make([]int32, numOld)
	for i := range imgNode {
		imgNode[i] = -1
	}
	imgNode[0] = 0
	surv := make([]int, 0, numNew)
	surv = append(surv, 0)
	for id := 1; id < numOld && id < len(m); id++ {
		if m[id] == xag.NullLit {
			continue
		}
		imgNode[id] = int32(m[id].Node())
		if id < base {
			surv = append(surv, id)
		}
	}

	// leafOK (by new id): survivors whose renumbering preserves id order
	// against all other survivors — new id above every earlier survivor's
	// (prefix max) and below every later one's (suffix min). The strict
	// inequalities also reject two old nodes folding onto one image node
	// (equal in the new space, distinct in the old).
	leafOK := make([]bool, numNew)
	pre := make([]bool, len(surv))
	maxBefore := int32(-1)
	for i, id := range surv {
		pre[i] = imgNode[id] > maxBefore
		if imgNode[id] > maxBefore {
			maxBefore = imgNode[id]
		}
	}
	minAfter := int32(math.MaxInt32)
	for i := len(surv) - 1; i >= 0; i-- {
		id := surv[i]
		if nid := imgNode[id]; pre[i] && nid < minAfter {
			leafOK[nid] = true
		}
		if imgNode[id] < minAfter {
			minAfter = imgNode[id]
		}
	}

	var seedDepth []int
	if depths != nil {
		seedDepth = make([]int, numNew)
		for i := range seedDepth {
			seedDepth[i] = -1
		}
		for _, id := range surv {
			if id < len(depths) {
				seedDepth[imgNode[id]] = depths[id] // AND-depth is polarity-invariant
			}
		}
	}

	slots := make([][]cut.Cut, numNew)
	poisoned := make([]bool, numNew)
	for _, id := range old.LiveNodes() {
		if !old.IsGate(id) {
			continue
		}
		img := m[id]
		if img == xag.NullLit {
			continue
		}
		if id >= base {
			continue // built by this round's commits
		}
		s0, s1 := old.StoredFanins(id)
		f0, f1 := old.Resolve(s0), old.Resolve(s1)
		if f0 != s0 || f1 != s1 {
			continue // a fanin was substituted: the local structure changed
		}
		// The gate's new incarnation must be wired exactly as the old one
		// under the image map: same kind, fanins pointing at the fanins' own
		// image nodes (in either order — the rebuild's normalization may
		// swap them), each fanin keeping its gate/input nature. Fanin
		// complements need no check: the carried tables are functions of the
		// image node over the image leaves, which absorbs every interior
		// polarity the normalization floated around.
		nid := int(img.Node())
		n0, n1 := imgNode[f0.Node()], imgNode[f1.Node()]
		if n0 < 0 || n1 < 0 ||
			!out.IsGate(nid) || out.Kind(nid) != old.Kind(id) ||
			old.IsGate(f0.Node()) != out.IsGate(int(n0)) ||
			old.IsGate(f1.Node()) != out.IsGate(int(n1)) {
			continue
		}
		g0, g1 := out.Fanins(nid)
		if !(g0.Node() == int(n0) && g1.Node() == int(n1) ||
			g0.Node() == int(n1) && g1.Node() == int(n0)) {
			continue
		}
		// Two old gates mapping onto one new slot means the slot's seed
		// would be ambiguous — drop it entirely (vanishingly rare: it takes
		// distinct old structures whose images strash-fold together).
		if poisoned[nid] || slots[nid] != nil {
			slots[nid] = nil
			poisoned[nid] = true
			continue
		}
		cs := cuts.For(id)
		if !renumberable(cs, imgNode) {
			continue // a cut leaf died in Cleanup: the list cannot carry over
		}

		// Renumber the list in place into the new id space, flipping table
		// polarities where Cleanup complemented an image. Leaf order inside
		// a cut — and hence the variable alignment — is preserved whenever
		// the next round actually consumes the seed (leafOK guards it); a
		// garbled list merely fails that round's equality check and is
		// recomputed.
		cut.TransformLeaves(cs, func(l int) (int, bool) { return int(imgNode[l]), m[l].Compl() }, img.Compl())
		slots[nid] = cs
	}

	inc.cuts = cut.NewSetFrom(slots)
	inc.leafOK = leafOK
	inc.depth = seedDepth
	inc.valid = true
}

// renumberable reports whether every leaf of every cut in cs kept a node
// image across Cleanup.
func renumberable(cs []cut.Cut, imgNode []int32) bool {
	for ci := range cs {
		c := &cs[ci]
		for k := 0; k < c.Size(); k++ {
			if imgNode[c.Leaf(k)] < 0 {
				return false
			}
		}
	}
	return true
}
