// Package xag implements XOR-AND graphs (XAGs): combinational logic networks
// whose gates are 2-input ANDs and 2-input XORs connected by regular or
// complemented edges. XAGs are the circuit representation used throughout
// this repository; the number of AND gates of an XAG is its multiplicative
// complexity.
//
// Networks are built through the And, Xor and Not constructors, which apply
// constant folding, input normalization and structural hashing, so
// syntactically identical gates are created only once. Node 0 is the
// constant-false node; primary inputs follow, then gates in topological
// order. A substitution mechanism (Substitute) supports DAG-aware rewriting:
// replaced nodes are redirected through an internal forwarding table and
// physically removed by Cleanup.
package xag

import "fmt"

// Lit is an edge literal: a node index shifted left by one, with the low bit
// indicating complementation. Lit 0 is constant false, Lit 1 constant true.
type Lit uint32

// MakeLit builds a literal from a node index and a complement flag.
func MakeLit(node int, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node index of the literal.
func (l Lit) Node() int { return int(l >> 1) }

// Compl reports whether the literal is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf returns the literal complemented when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

func (l Lit) String() string {
	if l.Compl() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// Const0 and Const1 are the constant literals.
const (
	Const0 Lit = 0
	Const1 Lit = 1
)

// Kind distinguishes node types.
type Kind uint8

// Node kinds.
const (
	KindConst Kind = iota // node 0 only
	KindPI                // primary input
	KindAnd
	KindXor
)

func (k Kind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindPI:
		return "pi"
	case KindAnd:
		return "and"
	case KindXor:
		return "xor"
	}
	return "?"
}

type node struct {
	kind       Kind
	fan0, fan1 Lit
}

type strashKey struct {
	kind       Kind
	fan0, fan1 Lit
}

// Network is a mutable XAG.
type Network struct {
	nodes  []node
	pis    []int // node ids of primary inputs, in declaration order
	pos    []Lit
	names  map[int]string // optional PI names
	poName []string       // optional PO names, parallel to pos ("" if unset)

	strash map[strashKey]int
	repl   []Lit   // forwarding table for substituted nodes; repl[i] defaults to self
	refs   []int32 // fanout counts on the resolved graph, incl. PO refs

	// Incremental per-node depth tracking (see Level and AndDepth): cached
	// levels are validated by an epoch stamp, so a depth-changing
	// Substitute invalidates every cache in O(1) and stale nodes are
	// recomputed lazily on the next query.
	level      []int32  // gate depth counting every gate
	andDepth   []int32  // gate depth counting only AND gates
	depthStamp []uint32 // epoch at which level/andDepth were computed
	depthEpoch uint32   // current epoch; starts at 1 so the zero stamp is stale

	// Dirty-region tracking for incremental cross-round rewriting; see
	// dirty.go. Inactive (epoch 0) until BeginDirtyEpoch.
	dirty dirtyState
}

// New returns an empty network containing only the constant node.
func New() *Network {
	n := &Network{
		strash:     make(map[strashKey]int),
		names:      make(map[int]string),
		depthEpoch: 1,
	}
	n.addNode(node{kind: KindConst})
	return n
}

func (n *Network) addNode(nd node) int {
	id := len(n.nodes)
	n.nodes = append(n.nodes, nd)
	n.repl = append(n.repl, MakeLit(id, false))
	n.refs = append(n.refs, 0)
	n.level = append(n.level, 0)
	n.andDepth = append(n.andDepth, 0)
	stamp := n.depthEpoch // constants and PIs are always at depth 0
	if nd.kind == KindAnd || nd.kind == KindXor {
		stamp = n.depthEpoch - 1 // stale until computed from the fanins
	}
	n.depthStamp = append(n.depthStamp, stamp)
	return id
}

// AddPI appends a primary input and returns its literal. The name may be
// empty.
func (n *Network) AddPI(name string) Lit {
	id := n.addNode(node{kind: KindPI})
	n.pis = append(n.pis, id)
	if name != "" {
		n.names[id] = name
	}
	return MakeLit(id, false)
}

// AddPO registers l as a primary output and returns its output index.
func (n *Network) AddPO(l Lit, name string) int {
	l = n.Resolve(l)
	n.pos = append(n.pos, l)
	n.poName = append(n.poName, name)
	n.refs[l.Node()]++
	return len(n.pos) - 1
}

// NumPIs returns the number of primary inputs.
func (n *Network) NumPIs() int { return len(n.pis) }

// NumPOs returns the number of primary outputs.
func (n *Network) NumPOs() int { return len(n.pos) }

// NumNodes returns the total number of nodes ever allocated, including the
// constant, inputs, and dead gates awaiting Cleanup.
func (n *Network) NumNodes() int { return len(n.nodes) }

// PI returns the literal of the i-th primary input.
func (n *Network) PI(i int) Lit { return MakeLit(n.pis[i], false) }

// PIName returns the name of the i-th primary input ("" if unnamed).
func (n *Network) PIName(i int) string { return n.names[n.pis[i]] }

// PO returns the (resolved) literal driving the i-th primary output.
func (n *Network) PO(i int) Lit { return n.Resolve(n.pos[i]) }

// POName returns the name of the i-th primary output ("" if unnamed).
func (n *Network) POName(i int) string { return n.poName[i] }

// Kind returns the kind of a node.
func (n *Network) Kind(id int) Kind { return n.nodes[id].kind }

// IsGate reports whether the node is an AND or XOR gate.
func (n *Network) IsGate(id int) bool {
	k := n.nodes[id].kind
	return k == KindAnd || k == KindXor
}

// Fanins returns the two (resolved) fanin literals of a gate node.
func (n *Network) Fanins(id int) (Lit, Lit) {
	nd := n.nodes[id]
	if nd.kind != KindAnd && nd.kind != KindXor {
		panic(fmt.Sprintf("xag: node %d (%v) has no fanins", id, nd.kind))
	}
	return n.Resolve(nd.fan0), n.Resolve(nd.fan1)
}

// Resolve follows the substitution forwarding table, with path compression.
func (n *Network) Resolve(l Lit) Lit {
	id := l.Node()
	r := n.repl[id]
	if r.Node() == id {
		return l
	}
	final := n.Resolve(r)
	n.repl[id] = final
	return final.NotIf(l.Compl())
}

// Ref returns the current resolved-graph fanout count of a node (including
// primary output references).
func (n *Network) Ref(id int) int { return int(n.refs[id]) }

// And returns a literal computing a ∧ b, creating at most one node.
func (n *Network) And(a, b Lit) Lit {
	a, b = n.Resolve(a), n.Resolve(b)
	// Constant folding and trivial cases.
	switch {
	case a == Const0 || b == Const0:
		return Const0
	case a == Const1:
		return b
	case b == Const1:
		return a
	case a == b:
		return a
	case a == b.Not():
		return Const0
	}
	if a > b {
		a, b = b, a
	}
	return n.lookupOrCreate(KindAnd, a, b)
}

// Xor returns a literal computing a ⊕ b, creating at most one node.
// Complemented fanins are normalized out of the gate: the stored node always
// has two regular fanins, and the complement is carried on the output edge.
func (n *Network) Xor(a, b Lit) Lit {
	a, b = n.Resolve(a), n.Resolve(b)
	switch {
	case a == Const0:
		return b
	case a == Const1:
		return b.Not()
	case b == Const0:
		return a
	case b == Const1:
		return a.Not()
	case a == b:
		return Const0
	case a == b.Not():
		return Const1
	}
	out := a.Compl() != b.Compl()
	a, b = a&^1, b&^1
	if a > b {
		a, b = b, a
	}
	return n.lookupOrCreate(KindXor, a, b).NotIf(out)
}

// Not returns the complement of a.
func (n *Network) Not(a Lit) Lit { return a.Not() }

// Or returns a ∨ b built as ¬(¬a ∧ ¬b).
func (n *Network) Or(a, b Lit) Lit { return n.And(a.Not(), b.Not()).Not() }

// Mux returns s ? t : e built with one AND when possible:
// mux(s,t,e) = e ⊕ s∧(t⊕e).
func (n *Network) Mux(s, t, e Lit) Lit {
	return n.Xor(e, n.And(s, n.Xor(t, e)))
}

// Maj returns the majority of three literals with a single AND gate:
// ⟨abc⟩ = b ⊕ (a⊕b)∧(b⊕c).
func (n *Network) Maj(a, b, c Lit) Lit {
	return n.Xor(b, n.And(n.Xor(a, b), n.Xor(b, c)))
}

func (n *Network) lookupOrCreate(kind Kind, a, b Lit) Lit {
	key := strashKey{kind, a, b}
	if id, ok := n.strash[key]; ok {
		// A hash hit may return a node that has itself been substituted;
		// resolve to the current representative.
		return n.Resolve(MakeLit(id, false))
	}
	id := n.addNode(node{kind: kind, fan0: a, fan1: b})
	n.strash[key] = id
	n.refs[a.Node()]++
	n.refs[b.Node()]++
	// Eagerly stamp the new gate's depth when both fanins are current —
	// always the case on a freshly built network, so construction keeps
	// every node's Level/AndDepth valid at O(1) per gate.
	if f0, f1 := a.Node(), b.Node(); n.depthCurrent(f0) && n.depthCurrent(f1) {
		n.level[id] = max(n.level[f0], n.level[f1]) + 1
		ad := max(n.andDepth[f0], n.andDepth[f1])
		if kind == KindAnd {
			ad++
		}
		n.andDepth[id] = ad
		n.depthStamp[id] = n.depthEpoch
	}
	return MakeLit(id, false)
}

// depthCurrent reports whether id's cached depths are valid at the current
// epoch, refreshing constants and inputs (always depth 0) on the fly.
func (n *Network) depthCurrent(id int) bool {
	if n.depthStamp[id] == n.depthEpoch {
		return true
	}
	if !n.IsGate(id) {
		n.level[id], n.andDepth[id] = 0, 0
		n.depthStamp[id] = n.depthEpoch
		return true
	}
	return false
}

// computeDepth fills the level/andDepth caches of id (which must resolve to
// itself) by walking its resolved fanin cone, memoized per epoch.
func (n *Network) computeDepth(id int) {
	if n.depthCurrent(id) {
		return
	}
	f0, f1 := n.Fanins(id)
	a, b := f0.Node(), f1.Node()
	n.computeDepth(a)
	n.computeDepth(b)
	n.level[id] = max(n.level[a], n.level[b]) + 1
	ad := max(n.andDepth[a], n.andDepth[b])
	if n.nodes[id].kind == KindAnd {
		ad++
	}
	n.andDepth[id] = ad
	n.depthStamp[id] = n.depthEpoch
}

// Level returns the depth of the node counting every gate (inputs and
// constants are at level 0). Substituted nodes report the level of their
// replacement. Values are maintained incrementally: after a depth-changing
// Substitute the first query per node recomputes its cone, later queries
// are O(1).
func (n *Network) Level(id int) int {
	r := n.Resolve(MakeLit(id, false)).Node()
	n.computeDepth(r)
	return int(n.level[r])
}

// AndDepth returns the multiplicative depth of the node: the largest number
// of AND gates on any path from an input to it. Substituted nodes report
// the depth of their replacement. Maintained incrementally like Level.
func (n *Network) AndDepth(id int) int {
	r := n.Resolve(MakeLit(id, false)).Node()
	n.computeDepth(r)
	return int(n.andDepth[r])
}

// EnsureDepths validates the level/AndDepth caches of every live node. On a
// compact network, concurrent readers may afterwards call Level and
// AndDepth freely: with all stamps current the queries are pure reads.
func (n *Network) EnsureDepths() {
	for _, id := range n.LiveNodes() {
		n.computeDepth(id)
	}
}

// Substitute redirects every reference to node old to the literal repl.
// The caller must guarantee that old is not in the transitive fanin of repl
// (see InTFI). Reference counts are updated: the old node's fanout count is
// transferred to repl, and old's cone is dereferenced.
func (n *Network) Substitute(old int, replacement Lit) {
	replacement = n.Resolve(replacement)
	if replacement.Node() == old {
		return
	}
	// Depth bookkeeping: redirecting old onto the replacement changes the
	// depth of every transitive fanout unless the two provably coincide.
	// The caches are invalidated in O(1) by bumping the epoch; downstream
	// nodes recompute lazily on their next Level/AndDepth query.
	rid := replacement.Node()
	if !(n.depthCurrent(old) && n.depthCurrent(rid) &&
		n.level[old] == n.level[rid] && n.andDepth[old] == n.andDepth[rid]) {
		n.depthEpoch++
	}
	n.stampDirty(old)
	wasLive := n.refs[old] > 0
	n.repl[old] = replacement
	n.refs[replacement.Node()] += n.refs[old]
	n.refs[old] = 0
	if wasLive {
		n.deref(old)
	}
}

// deref decrements the fanin references of a dead gate, recursively freeing
// its cone.
func (n *Network) deref(id int) {
	nd := n.nodes[id]
	if nd.kind != KindAnd && nd.kind != KindXor {
		return
	}
	for _, f := range [2]Lit{nd.fan0, nd.fan1} {
		fid := n.Resolve(f).Node()
		n.refs[fid]--
		if n.refs[fid] == 0 {
			n.deref(fid)
		}
	}
}

// InTFI reports whether node target appears in the transitive fanin of l
// (including l's own node).
func (n *Network) InTFI(l Lit, target int) bool {
	var s TFIScratch
	return n.InTFIScratch(l, target, &s)
}

// TFIScratch holds the reusable buffers of InTFIScratch. The zero value is
// ready to use; a scratch belongs to one goroutine at a time.
type TFIScratch struct {
	stamp []int32 // stamp[id] == epoch: id already visited this query
	epoch int32
	stack []int32
}

// InTFIScratch is InTFI with caller-owned scratch: repeated queries reuse
// the visited stamps and traversal stack, so a query allocates only when the
// network outgrew the scratch. The commit loop of a rewriting round calls
// this once per applied replacement.
func (n *Network) InTFIScratch(l Lit, target int, s *TFIScratch) bool {
	if len(s.stamp) < len(n.nodes) {
		s.stamp = make([]int32, len(n.nodes)+len(n.nodes)/2)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2^31 queries ago are stale
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.stack = append(s.stack[:0], int32(n.Resolve(l).Node()))
	for len(s.stack) > 0 {
		id := int(s.stack[len(s.stack)-1])
		s.stack = s.stack[:len(s.stack)-1]
		if id == target {
			return true
		}
		if s.stamp[id] == s.epoch || !n.IsGate(id) {
			continue
		}
		s.stamp[id] = s.epoch
		f0, f1 := n.Fanins(id)
		s.stack = append(s.stack, int32(f0.Node()), int32(f1.Node()))
	}
	return false
}
