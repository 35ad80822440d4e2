package xag

// Evaluator simulates one network bit-parallel, 64 input patterns per Run.
// It resolves the live gates into one topological order when it is built
// and owns one value word per node, so a Run walks no graph and allocates
// nothing: a miter that evaluates a network on thousands of pattern
// batches pays for the order once. The network must not change while the
// evaluator is in use.
type Evaluator struct {
	pis   []int      // node ids of the primary inputs, in declaration order
	gates []evalGate // live gates, fanins before fanouts
	pos   []Lit      // resolved output literals
	vals  []uint64   // value word of every node, indexed by node id
}

// evalGate is one live gate with its fanins resolved.
type evalGate struct {
	id     uint32
	kind   Kind
	f0, f1 Lit
}

// NewEvaluator builds the evaluator of n's current live gates.
func NewEvaluator(n *Network) *Evaluator {
	e := &Evaluator{
		pis:  n.pis,
		pos:  make([]Lit, len(n.pos)),
		vals: make([]uint64, len(n.nodes)),
	}
	live := n.LiveNodes()
	e.gates = make([]evalGate, 0, len(live))
	for _, id := range live {
		if n.IsGate(id) {
			f0, f1 := n.Fanins(id)
			e.gates = append(e.gates, evalGate{id: uint32(id), kind: n.Kind(id), f0: f0, f1: f1})
		}
	}
	for i := range n.pos {
		e.pos[i] = n.PO(i)
	}
	return e
}

// word returns the value word of literal l, given the node words v.
func word(v []uint64, l Lit) uint64 { return v[l.Node()] ^ -uint64(l&1) }

// Run evaluates the network on 64 patterns: inputs[i] holds the stimulus
// bits of primary input i. It returns the value word of every node (in
// regular polarity), indexed by node id; dead nodes keep a zero word. The
// slice belongs to the evaluator and the next Run overwrites it.
func (e *Evaluator) Run(inputs []uint64) []uint64 {
	if len(inputs) != len(e.pis) {
		panic("xag: simulation input count mismatch")
	}
	v := e.vals
	for i, pi := range e.pis {
		v[pi] = inputs[i]
	}
	for _, g := range e.gates {
		a, b := word(v, g.f0), word(v, g.f1)
		if g.kind == KindAnd {
			v[g.id] = a & b
		} else {
			v[g.id] = a ^ b
		}
	}
	return v
}

// Output returns the word of primary output i computed by the last Run.
// Complemented edges are honored.
func (e *Evaluator) Output(i int) uint64 { return word(e.vals, e.pos[i]) }

// Simulate evaluates the network bit-parallel on 64 input patterns at once.
// inputs[i] holds the 64 stimulus bits for primary input i; the result has
// one word per primary output. Complemented edges are honored. Callers that
// simulate one network many times should keep an Evaluator instead.
func (n *Network) Simulate(inputs []uint64) []uint64 {
	e := NewEvaluator(n)
	e.Run(inputs)
	out := make([]uint64, len(e.pos))
	for i := range out {
		out[i] = e.Output(i)
	}
	return out
}

// EvalBools evaluates the network on a single Boolean input assignment.
func (n *Network) EvalBools(inputs []bool) []bool {
	words := make([]uint64, len(inputs))
	for i, v := range inputs {
		if v {
			words[i] = 1
		}
	}
	outWords := n.Simulate(words)
	out := make([]bool, len(outWords))
	for i, w := range outWords {
		out[i] = w&1 == 1
	}
	return out
}

// SimulateNodes evaluates the network bit-parallel like Simulate but returns
// the value word of every node (in regular polarity), indexed by node id.
// Dead nodes keep a zero word.
func (n *Network) SimulateNodes(inputs []uint64) []uint64 {
	return NewEvaluator(n).Run(inputs)
}
