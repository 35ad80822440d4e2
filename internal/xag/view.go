package xag

// Counts summarizes the live gate content of a network.
type Counts struct {
	And, Xor int // live gate counts
	Level    int // circuit depth counting every gate
	AndDepth int // circuit depth counting only AND gates ("multiplicative depth")
}

// LiveNodes returns the ids of all nodes reachable from the primary outputs,
// in topological order (fanins before fanouts), excluding the constant node
// but including primary inputs.
func (n *Network) LiveNodes() []int {
	mark := make([]bool, len(n.nodes))
	order := make([]int, 0, len(n.nodes))
	var visit func(id int)
	visit = func(id int) {
		if mark[id] || id == 0 {
			return
		}
		mark[id] = true
		if n.IsGate(id) {
			f0, f1 := n.Fanins(id)
			visit(f0.Node())
			visit(f1.Node())
		}
		order = append(order, id)
	}
	for i := range n.pos {
		visit(n.PO(i).Node())
	}
	return order
}

// CountGates returns the live AND/XOR counts and depth statistics.
func (n *Network) CountGates() Counts {
	var c Counts
	level := make([]int, len(n.nodes))
	andDepth := make([]int, len(n.nodes))
	for _, id := range n.LiveNodes() {
		if !n.IsGate(id) {
			continue
		}
		f0, f1 := n.Fanins(id)
		l := max(level[f0.Node()], level[f1.Node()]) + 1
		ad := max(andDepth[f0.Node()], andDepth[f1.Node()])
		switch n.Kind(id) {
		case KindAnd:
			c.And++
			ad++
		case KindXor:
			c.Xor++
		}
		level[id] = l
		andDepth[id] = ad
		c.Level = max(c.Level, l)
		c.AndDepth = max(c.AndDepth, ad)
	}
	return c
}

// NumAnds returns the number of live AND gates — the multiplicative
// complexity of the network as defined in the paper.
func (n *Network) NumAnds() int { return n.CountGates().And }

// NumXors returns the number of live XOR gates.
func (n *Network) NumXors() int { return n.CountGates().Xor }

// MFFC returns the number of AND and XOR gates in the maximum fanout-free
// cone of root, stopping at the given leaves: the gates that would become
// dead if root were replaced by an equivalent signal over those leaves.
func (n *Network) MFFC(root int, leaves map[int]bool) (ands, xors int) {
	if !n.IsGate(root) {
		return 0, 0
	}
	// Simulate dereferencing on a copy of the reference counts.
	local := make(map[int]int32)
	refOf := func(id int) int32 {
		if v, ok := local[id]; ok {
			return v
		}
		return n.refs[id]
	}
	var deref func(id int)
	deref = func(id int) {
		if !n.IsGate(id) {
			return
		}
		if n.Kind(id) == KindAnd {
			ands++
		} else {
			xors++
		}
		f0, f1 := n.Fanins(id)
		for _, f := range [2]Lit{f0, f1} {
			fid := f.Node()
			if leaves[fid] {
				continue
			}
			r := refOf(fid) - 1
			local[fid] = r
			if r == 0 {
				deref(fid)
			}
		}
	}
	deref(root)
	return ands, xors
}

// ConeScratch holds the reusable buffers of MFFCScratch, so the hot commit
// path of the rewriting engine can query MFFCs without per-call maps. The
// zero value is ready to use; a ConeScratch belongs to one goroutine.
type ConeScratch struct {
	ref     []int32 // simulated reference counts, valid where mark is set
	mark    []bool  // which ref entries are live this query
	leaf    []bool  // leaf membership this query
	touched []int   // ids with mark set, for O(touched) reset
}

func (s *ConeScratch) grow(n int) {
	if len(s.ref) >= n {
		return
	}
	s.ref = append(s.ref, make([]int32, n-len(s.ref))...)
	s.mark = append(s.mark, make([]bool, n-len(s.mark))...)
	s.leaf = append(s.leaf, make([]bool, n-len(s.leaf))...)
}

// MFFCScratch is MFFC with caller-provided scratch instead of per-call map
// allocations: leaves is the leaf id set as a slice (order irrelevant), and
// s is reset on return, ready for the next query. The result is identical to
// MFFC for the same root and leaf set.
func (n *Network) MFFCScratch(root int, leaves []int, s *ConeScratch) (ands, xors int) {
	if !n.IsGate(root) {
		return 0, 0
	}
	s.grow(len(n.nodes))
	for _, id := range leaves {
		s.leaf[id] = true
	}
	var deref func(id int)
	deref = func(id int) {
		if !n.IsGate(id) {
			return
		}
		if n.Kind(id) == KindAnd {
			ands++
		} else {
			xors++
		}
		f0, f1 := n.Fanins(id)
		for _, f := range [2]Lit{f0, f1} {
			fid := f.Node()
			if s.leaf[fid] {
				continue
			}
			if !s.mark[fid] {
				s.mark[fid] = true
				s.ref[fid] = n.refs[fid]
				s.touched = append(s.touched, fid)
			}
			s.ref[fid]--
			if s.ref[fid] == 0 {
				deref(fid)
			}
		}
	}
	deref(root)
	for _, id := range s.touched {
		s.mark[id] = false
	}
	s.touched = s.touched[:0]
	for _, id := range leaves {
		s.leaf[id] = false
	}
	return ands, xors
}

// Cleanup rebuilds the network without dead nodes and with all
// substitutions applied, returning the compact copy. PI order, PO order and
// names are preserved. The original network is not modified. Note that
// Cleanup compacts: surviving gates are renumbered, so node ids of the
// original are meaningless in the copy — use CleanupMap for the renumbering,
// or Clone for an id-preserving copy.
func (n *Network) Cleanup() *Network {
	out, _ := n.CleanupMap()
	return out
}

// NullLit marks the absence of a literal in CleanupMap's result.
const NullLit Lit = ^Lit(0)

// CleanupMap is Cleanup, additionally returning the renumbering: oldToNew is
// indexed by old node id and holds the literal of the compact copy computing
// that node's function (possibly complemented — the rebuild's normalization
// can fold a gate onto the complement of another). Entries of substituted,
// dead, or unreached nodes are NullLit.
func (n *Network) CleanupMap() (*Network, []Lit) {
	out := New()
	oldToNew := make([]Lit, len(n.nodes))
	for i := range oldToNew {
		oldToNew[i] = NullLit
	}
	done := make([]bool, len(n.nodes))
	oldToNew[0] = Const0
	done[0] = true
	for i, pi := range n.pis {
		oldToNew[pi] = out.AddPI(n.PIName(i))
		done[pi] = true
	}
	var build func(l Lit) Lit
	build = func(l Lit) Lit {
		l = n.Resolve(l)
		id := l.Node()
		if done[id] {
			return oldToNew[id].NotIf(l.Compl())
		}
		f0, f1 := n.Fanins(id)
		a, b := build(f0), build(f1)
		var v Lit
		if n.Kind(id) == KindAnd {
			v = out.And(a, b)
		} else {
			v = out.Xor(a, b)
		}
		oldToNew[id] = v
		done[id] = true
		return v.NotIf(l.Compl())
	}
	for i := range n.pos {
		out.AddPO(build(n.pos[i]), n.POName(i))
	}
	return out, oldToNew
}

// Clone returns a true deep copy of the network that preserves node ids:
// every node — including dead gates and pending substitutions — keeps its
// index, so literals and node ids held by the caller remain valid in the
// copy. (This is unlike Cleanup, which compacts and renumbers.) The copy
// shares no mutable state with the original.
func (n *Network) Clone() *Network {
	out := &Network{
		nodes:      append([]node(nil), n.nodes...),
		pis:        append([]int(nil), n.pis...),
		pos:        append([]Lit(nil), n.pos...),
		names:      make(map[int]string, len(n.names)),
		poName:     append([]string(nil), n.poName...),
		strash:     make(map[strashKey]int, len(n.strash)),
		repl:       append([]Lit(nil), n.repl...),
		refs:       append([]int32(nil), n.refs...),
		andDepth:   append([]int32(nil), n.andDepth...),
		depthStamp: append([]uint32(nil), n.depthStamp...),
		depthEpoch: n.depthEpoch,
		ord:        append([]uint64(nil), n.ord...),
	}
	for id, name := range n.names {
		out.names[id] = name
	}
	for k, id := range n.strash {
		out.strash[k] = id
	}
	return out
}
