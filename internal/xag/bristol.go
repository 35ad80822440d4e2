package xag

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Bristol-fashion circuit I/O. This is the netlist format used by the MPC
// community for the benchmark circuits the paper optimizes
// (https://nigelsmart.github.io/MPC-Circuits/): a gate-count header, input
// and output value declarations, and one XOR/AND/INV/EQW gate per line.
// Complemented edges are materialized as INV gates on write and folded back
// into edge complements on read.

// WriteBristol writes the network in Bristol fashion. Inputs are grouped as
// one value per primary input bit and outputs as one value (all PO bits);
// readers that care only about wire order are unaffected.
func (n *Network) WriteBristol(w io.Writer) error {
	bw := bufio.NewWriter(w)

	live := n.LiveNodes()
	// Wire numbering: PIs first (Bristol requires it), then gate outputs.
	wireOf := make(map[Lit]int)
	next := 0
	for i := range n.pis {
		wireOf[n.PI(i)] = next
		next++
	}

	type gateLine struct {
		op  string
		ins []int
		out int
	}
	var lines []gateLine
	newWire := func() int { next++; return next - 1 }

	// constWire lazily materializes constant wires (0 = x0 XOR x0 needs an
	// input; use EQ gates: "1 1 0 <out> EQ" sets a wire to constant 0/1).
	constWires := map[Lit]int{}
	constWire := func(l Lit) int {
		if wv, ok := constWires[l]; ok {
			return wv
		}
		out := newWire()
		bit := 0
		if l == Const1 {
			bit = 1
		}
		lines = append(lines, gateLine{op: "EQ", ins: []int{bit}, out: out})
		constWires[l] = out
		return out
	}

	litWire := func(l Lit) int {
		l = n.Resolve(l)
		if l.Node() == 0 {
			return constWire(l)
		}
		if wv, ok := wireOf[l]; ok {
			return wv
		}
		// Complemented edge: emit an INV of the regular wire.
		reg := l &^ 1
		rv, ok := wireOf[reg]
		if !ok {
			panic("xag: WriteBristol: fanin visited before definition")
		}
		out := newWire()
		lines = append(lines, gateLine{op: "INV", ins: []int{rv}, out: out})
		wireOf[l] = out
		return out
	}

	for _, id := range live {
		if !n.IsGate(id) {
			continue
		}
		f0, f1 := n.Fanins(id)
		a, b := litWire(f0), litWire(f1)
		out := newWire()
		op := "AND"
		if n.Kind(id) == KindXor {
			op = "XOR"
		}
		lines = append(lines, gateLine{op: op, ins: []int{a, b}, out: out})
		wireOf[MakeLit(id, false)] = out
	}

	// Outputs must be the final wires, in order. Materialize all source
	// wires (which may add INV/EQ lines) first, then emit one contiguous
	// block of EQW copies so the output wires really are the last ones.
	srcs := make([]int, len(n.pos))
	for i := range n.pos {
		srcs[i] = litWire(n.PO(i))
	}
	for _, src := range srcs {
		lines = append(lines, gateLine{op: "EQW", ins: []int{src}, out: newWire()})
	}

	fmt.Fprintf(bw, "%d %d\n", len(lines), next)
	fmt.Fprintf(bw, "%d", len(n.pis))
	for range n.pis {
		fmt.Fprint(bw, " 1")
	}
	fmt.Fprintln(bw)
	if len(n.pos) == 0 {
		fmt.Fprintf(bw, "0\n\n")
	} else {
		fmt.Fprintf(bw, "1 %d\n\n", len(n.pos))
	}
	for _, g := range lines {
		switch g.op {
		case "EQ":
			fmt.Fprintf(bw, "1 1 %d %d EQ\n", g.ins[0], g.out)
		case "EQW", "INV":
			fmt.Fprintf(bw, "1 1 %d %d %s\n", g.ins[0], g.out, g.op)
		default:
			fmt.Fprintf(bw, "2 1 %d %d %d %s\n", g.ins[0], g.ins[1], g.out, g.op)
		}
	}
	return bw.Flush()
}

// ReadBristol parses a Bristol-fashion circuit into a network. INV/NOT
// gates become complemented edges; EQ introduces constants; EQW copies
// wires; MAND (multi-AND) is expanded into 2-input ANDs.
func ReadBristol(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from 4 KiB as long lines need, up to 16 MiB
	fields := func() ([]string, error) {
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) > 0 {
				return f, nil
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}

	// parseInt is strict: the whole field must be a decimal integer.
	// fmt.Sscanf would silently accept "12abc" as 12 and "0x10" as 0, so a
	// malformed file could parse into a wrong (instead of rejected) circuit.
	parseInt := func(s, what string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("xag: bristol %s: bad integer %q", what, s)
		}
		return v, nil
	}
	// gateInt is parseInt for a field of gate g; the error context is
	// formatted only when the field fails to parse.
	gateInt := func(s string, g int, what string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("xag: bristol gate %d %s: bad integer %q", g, what, s)
		}
		return v, nil
	}

	head, err := fields()
	if err != nil {
		return nil, fmt.Errorf("xag: bristol header: %v", err)
	}
	if len(head) != 2 {
		return nil, fmt.Errorf("xag: bristol header needs 2 fields, got %d", len(head))
	}
	nGates, err := parseInt(head[0], "header")
	if err != nil {
		return nil, err
	}
	nWires, err := parseInt(head[1], "header")
	if err != nil {
		return nil, err
	}

	// sumHeader parses a "count w_1 … w_count" value header and returns the
	// total bit width. A total that does not fit an int exceeds any wire
	// count, so it is rejected as soon as the running sum would wrap; a
	// smaller total above nWires is rejected below with both totals.
	sumHeader := func(hdr []string, what string) (int, error) {
		nVals, err := parseInt(hdr[0], what+" header")
		if err != nil {
			return 0, err
		}
		if nVals < 0 || len(hdr) != nVals+1 {
			return 0, fmt.Errorf("xag: bristol %s header arity mismatch", what)
		}
		total := 0
		for _, f := range hdr[1:] {
			v, err := parseInt(f, what+" width")
			if err != nil {
				return 0, err
			}
			if v < 0 {
				return 0, fmt.Errorf("xag: bristol %s header: negative width %d", what, v)
			}
			if v > math.MaxInt-total {
				return 0, fmt.Errorf("xag: bristol header: %s widths exceed %d wires", what, nWires)
			}
			total += v
		}
		return total, nil
	}

	inHdr, err := fields()
	if err != nil {
		return nil, fmt.Errorf("xag: bristol input header: %v", err)
	}
	totalIn, err := sumHeader(inHdr, "input")
	if err != nil {
		return nil, err
	}

	outHdr, err := fields()
	if err != nil {
		return nil, fmt.Errorf("xag: bristol output header: %v", err)
	}
	totalOut, err := sumHeader(outHdr, "output")
	if err != nil {
		return nil, err
	}

	const maxWires = 1 << 26
	if nGates < 0 || nWires <= 0 || nWires > maxWires {
		return nil, fmt.Errorf("xag: bristol header: implausible sizes (%d gates, %d wires)", nGates, nWires)
	}
	if totalIn > nWires || totalOut > nWires {
		return nil, fmt.Errorf("xag: bristol header: %d inputs / %d outputs exceed %d wires",
			totalIn, totalOut, nWires)
	}

	net := New()
	wires := make([]Lit, nWires)
	for i := range wires {
		wires[i] = Lit(^uint32(0)) // sentinel: undefined
	}
	for i := 0; i < totalIn; i++ {
		wires[i] = net.AddPI("w" + strconv.Itoa(i))
	}

	// defineWire is the single write path for gate outputs. Bristol wires are
	// single-assignment: a gate whose output index names a primary input (or
	// any already-driven wire) would silently overwrite that wire's value for
	// every later reader, turning a corrupted file into a wrong — instead of
	// rejected — circuit.
	defineWire := func(g, w int, l Lit) error {
		if wires[w] != Lit(^uint32(0)) {
			if w < totalIn {
				return fmt.Errorf("xag: bristol gate %d: output wire %d collides with primary input %d", g, w, w)
			}
			return fmt.Errorf("xag: bristol gate %d: output wire %d already defined", g, w)
		}
		wires[w] = l
		return nil
	}

	var ins []Lit // reused across gates
	var outs []int
	for g := 0; g < nGates; g++ {
		f, err := fields()
		if err != nil {
			return nil, fmt.Errorf("xag: bristol gate %d: %v", g, err)
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("xag: bristol gate %d: too few fields", g)
		}
		nin, err := gateInt(f[0], g, "arity")
		if err != nil {
			return nil, err
		}
		nout, err := gateInt(f[1], g, "arity")
		if err != nil {
			return nil, err
		}
		if nin < 0 || nout < 0 || nin > nWires || nout > nWires || len(f) != 2+nin+nout+1 {
			return nil, fmt.Errorf("xag: bristol gate %d: field count", g)
		}
		op := f[len(f)-1]
		ins = slices.Grow(ins[:0], nin)[:nin]
		for i := 0; i < nin; i++ {
			w, err := gateInt(f[2+i], g, "input")
			if err != nil {
				return nil, err
			}
			if op != "EQ" { // EQ's "input" is a constant bit, not a wire
				if w < 0 || w >= nWires || wires[w] == Lit(^uint32(0)) {
					return nil, fmt.Errorf("xag: bristol gate %d: undefined wire %d", g, w)
				}
				ins[i] = wires[w]
			} else {
				if w != 0 && w != 1 {
					return nil, fmt.Errorf("xag: bristol gate %d: EQ constant must be 0 or 1", g)
				}
				ins[i] = Const0.NotIf(w == 1)
			}
		}
		outs = slices.Grow(outs[:0], nout)[:nout]
		for i := 0; i < nout; i++ {
			w, err := gateInt(f[2+nin+i], g, "output")
			if err != nil {
				return nil, err
			}
			outs[i] = w
		}
		checkArity := func(wantIn int) error {
			if nin != wantIn || nout != 1 {
				return fmt.Errorf("xag: bristol gate %d: %s needs %d input(s) and 1 output", g, op, wantIn)
			}
			if outs[0] < 0 || outs[0] >= nWires {
				return fmt.Errorf("xag: bristol gate %d: output wire %d out of range", g, outs[0])
			}
			return nil
		}
		switch op {
		case "XOR":
			if err := checkArity(2); err != nil {
				return nil, err
			}
			if err := defineWire(g, outs[0], net.Xor(ins[0], ins[1])); err != nil {
				return nil, err
			}
		case "AND":
			if err := checkArity(2); err != nil {
				return nil, err
			}
			if err := defineWire(g, outs[0], net.And(ins[0], ins[1])); err != nil {
				return nil, err
			}
		case "INV", "NOT":
			if err := checkArity(1); err != nil {
				return nil, err
			}
			if err := defineWire(g, outs[0], ins[0].Not()); err != nil {
				return nil, err
			}
		case "EQW", "EQ":
			if err := checkArity(1); err != nil {
				return nil, err
			}
			if err := defineWire(g, outs[0], ins[0]); err != nil {
				return nil, err
			}
		case "MAND":
			// Multi-AND: a batched list of pairwise ANDs:
			// in = a0..ak-1, b0..bk-1; out[i] = ai ∧ bi.
			k := nin / 2
			if nin != 2*k || nout != k || k == 0 {
				return nil, fmt.Errorf("xag: bristol gate %d: MAND arity mismatch", g)
			}
			for i := 0; i < k; i++ {
				if outs[i] < 0 || outs[i] >= nWires {
					return nil, fmt.Errorf("xag: bristol gate %d: output wire out of range", g)
				}
				if err := defineWire(g, outs[i], net.And(ins[i], ins[k+i])); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("xag: bristol gate %d: unknown op %q", g, op)
		}
	}

	// A file with more gate lines than the header declares is corrupted (or
	// its header is): reject it rather than silently dropping the tail.
	if extra, err := fields(); err == nil {
		return nil, fmt.Errorf("xag: bristol: trailing data %q after %d declared gates", strings.Join(extra, " "), nGates)
	} else if err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("xag: bristol: %v", err)
	}

	for i := 0; i < totalOut; i++ {
		w := nWires - totalOut + i
		if wires[w] == Lit(^uint32(0)) {
			return nil, fmt.Errorf("xag: bristol output wire %d undefined", w)
		}
		net.AddPO(wires[w], "o"+strconv.Itoa(i))
	}
	return net, nil
}

// WriteDOT renders the live network in Graphviz format, AND gates as boxes,
// XOR gates as circles, dashed edges for complements.
func (n *Network) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph xag {")
	fmt.Fprintln(bw, "  rankdir=BT;")
	for _, id := range n.LiveNodes() {
		switch {
		case n.Kind(id) == KindPI:
			name := n.names[id]
			if name == "" {
				name = fmt.Sprintf("x%d", id)
			}
			fmt.Fprintf(bw, "  n%d [label=%q shape=triangle];\n", id, name)
		case n.IsGate(id):
			shape, label := "circle", "⊕"
			if n.Kind(id) == KindAnd {
				shape, label = "box", "∧"
			}
			fmt.Fprintf(bw, "  n%d [label=%q shape=%s];\n", id, label, shape)
			f0, f1 := n.Fanins(id)
			for _, f := range [2]Lit{f0, f1} {
				style := "solid"
				if f.Compl() {
					style = "dashed"
				}
				fmt.Fprintf(bw, "  n%d -> n%d [style=%s];\n", f.Node(), id, style)
			}
		}
	}
	for i := range n.pos {
		l := n.PO(i)
		name := n.poName[i]
		if name == "" {
			name = fmt.Sprintf("po%d", i)
		}
		fmt.Fprintf(bw, "  o%d [label=%q shape=invtriangle];\n", i, name)
		style := "solid"
		if l.Compl() {
			style = "dashed"
		}
		fmt.Fprintf(bw, "  n%d -> o%d [style=%s];\n", l.Node(), i, style)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
