// Package builder provides a word-level construction layer on top of XAGs:
// named multi-bit buses, ripple adders, subtractors, multipliers,
// comparators, shifters, rotators, mux trees, decoders and popcounts. The
// benchmark generators in internal/bench assemble the paper's circuits
// (EPFL suite, MPC/FHE suite) out of these primitives.
//
// Buses are little-endian: bus[0] is the least significant bit. Primary
// inputs and outputs declared through Input and Output are named "name[i]"
// so simulation harnesses can recover the word layout from the PI/PO names.
package builder

import (
	"fmt"

	"repro/internal/xag"
)

// Bus is a little-endian vector of literals (index 0 = LSB).
type Bus []xag.Lit

type span struct{ start, width int }

// B accumulates a network under construction.
type B struct {
	Net *xag.Network

	inputs  map[string]span // input bus name → PI index range
	outputs map[string]span // output bus name → PO index range
}

// New returns a builder over a fresh network.
func New() *B {
	return &B{
		Net:     xag.New(),
		inputs:  make(map[string]span),
		outputs: make(map[string]span),
	}
}

// Input declares a w-bit input bus; bit i becomes the PI "name[i]".
func (b *B) Input(name string, w int) Bus {
	if _, dup := b.inputs[name]; dup {
		panic("builder: duplicate input bus " + name)
	}
	b.inputs[name] = span{start: b.Net.NumPIs(), width: w}
	bus := make(Bus, w)
	for i := range bus {
		bus[i] = b.Net.AddPI(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// Output declares bus as a named output; bit i becomes the PO "name[i]".
func (b *B) Output(name string, bus Bus) {
	if _, dup := b.outputs[name]; dup {
		panic("builder: duplicate output bus " + name)
	}
	b.outputs[name] = span{start: b.Net.NumPOs(), width: len(bus)}
	for i, l := range bus {
		b.Net.AddPO(l, fmt.Sprintf("%s[%d]", name, i))
	}
}

// Const returns the w-bit constant bus for v (truncated to w bits).
func (b *B) Const(v uint64, w int) Bus {
	bus := make(Bus, w)
	for i := range bus {
		bus[i] = xag.Const0
		if v>>uint(i)&1 == 1 {
			bus[i] = xag.Const1
		}
	}
	return bus
}

// Pack converts per-vector input assignments (bus name → value) into the
// bit-parallel word layout of Net.Simulate: up to 64 vectors, one bit lane
// per vector.
func (b *B) Pack(vecs []map[string]uint64) []uint64 {
	in := make([]uint64, b.Net.NumPIs())
	for k, vec := range vecs {
		for name, val := range vec {
			sp, ok := b.inputs[name]
			if !ok {
				panic("builder: Pack: unknown input bus " + name)
			}
			for i := 0; i < sp.width; i++ {
				if val>>uint(i)&1 == 1 {
					in[sp.start+i] |= 1 << uint(k)
				}
			}
		}
	}
	return in
}

// Unpack extracts the value of output bus name for vector lane vec from a
// Net.Simulate result.
func (b *B) Unpack(out []uint64, name string, vec int) uint64 {
	sp, ok := b.outputs[name]
	if !ok {
		panic("builder: Unpack: unknown output bus " + name)
	}
	var v uint64
	for i := 0; i < sp.width; i++ {
		if out[sp.start+i]>>uint(vec)&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	return v
}

func sameWidth(op string, x, y Bus) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("builder: %s: width mismatch %d vs %d", op, len(x), len(y)))
	}
}

// XorBus returns the bitwise XOR of two equal-width buses.
func (b *B) XorBus(x, y Bus) Bus {
	sameWidth("XorBus", x, y)
	out := make(Bus, len(x))
	for i := range out {
		out[i] = b.Net.Xor(x[i], y[i])
	}
	return out
}

// AndBus returns the bitwise AND of two equal-width buses.
func (b *B) AndBus(x, y Bus) Bus {
	sameWidth("AndBus", x, y)
	out := make(Bus, len(x))
	for i := range out {
		out[i] = b.Net.And(x[i], y[i])
	}
	return out
}

// EqBus returns a single literal that is 1 iff the two buses are equal.
func (b *B) EqBus(x, y Bus) xag.Lit {
	sameWidth("EqBus", x, y)
	out := xag.Const1
	for i := range x {
		out = b.Net.And(out, b.Net.Xor(x[i], y[i]).Not())
	}
	return out
}

// MuxNaive returns s ? t : e built from AND-OR logic (3 AND gates), the
// textbook mux of the EPFL netlists.
func (b *B) MuxNaive(s, t, e xag.Lit) xag.Lit {
	return b.Net.Or(b.Net.And(s, t), b.Net.And(s.Not(), e))
}

// MuxBusNaive muxes two equal-width buses bitwise with MuxNaive.
func (b *B) MuxBusNaive(s xag.Lit, t, e Bus) Bus {
	sameWidth("MuxBusNaive", t, e)
	out := make(Bus, len(t))
	for i := range out {
		out[i] = b.MuxNaive(s, t[i], e[i])
	}
	return out
}

// fullAdder returns (sum, carry) of a+b+c in textbook AND-OR logic: the
// 3-AND full adder, carry = ab + c(a⊕b) with OR via De Morgan. Like
// MuxNaive, it mirrors the un-optimized netlists of the EPFL benchmarks,
// leaving the MC headroom the optimizer is supposed to find.
func (b *B) fullAdder(a, c, cin xag.Lit) (xag.Lit, xag.Lit) {
	axc := b.Net.Xor(a, c)
	sum := b.Net.Xor(axc, cin)
	carry := b.Net.Or(b.Net.And(a, c), b.Net.And(cin, axc))
	return sum, carry
}

// Add returns the w-bit sum and the carry-out of two equal-width buses
// (ripple-carry).
func (b *B) Add(x, y Bus) (Bus, xag.Lit) {
	sameWidth("Add", x, y)
	sum := make(Bus, len(x))
	carry := xag.Const0
	for i := range x {
		sum[i], carry = b.fullAdder(x[i], y[i], carry)
	}
	return sum, carry
}

// AddMod returns the w-bit sum modulo 2^w.
func (b *B) AddMod(x, y Bus) Bus {
	sum, _ := b.Add(x, y)
	return sum
}

// Sub returns x−y (two's complement, width w) and the no-borrow flag, which
// is 1 iff x ≥ y (the carry-out of x + ¬y + 1).
func (b *B) Sub(x, y Bus) (Bus, xag.Lit) {
	sameWidth("Sub", x, y)
	diff := make(Bus, len(x))
	carry := xag.Const1
	for i := range x {
		diff[i], carry = b.fullAdder(x[i], y[i].Not(), carry)
	}
	return diff, carry
}

// SubConst returns the constant c minus the bus, modulo 2^w.
func (b *B) SubConst(c uint64, x Bus) Bus {
	diff, _ := b.Sub(b.Const(c, len(x)), x)
	return diff
}

// Neg returns the two's-complement negation of x.
func (b *B) Neg(x Bus) Bus {
	diff, _ := b.Sub(b.Const(0, len(x)), x)
	return diff
}

// Mul returns the full len(x)+len(y)-bit product (shift-and-add schoolbook
// multiplier).
func (b *B) Mul(x, y Bus) Bus {
	w := len(x) + len(y)
	acc := b.Const(0, w)
	for j, yb := range y {
		partial := b.Const(0, w)
		for i, xb := range x {
			partial[i+j] = b.Net.And(xb, yb)
		}
		acc = b.AddMod(acc, partial)
	}
	return acc
}

// LtU returns 1 iff x < y (unsigned).
func (b *B) LtU(x, y Bus) xag.Lit {
	_, noBorrow := b.Sub(x, y)
	return noBorrow.Not()
}

// LeU returns 1 iff x ≤ y (unsigned).
func (b *B) LeU(x, y Bus) xag.Lit {
	_, noBorrow := b.Sub(y, x)
	return noBorrow
}

// toUnsignedOrder flips the sign bit, mapping signed order onto unsigned.
func toUnsignedOrder(x Bus) Bus {
	out := append(Bus{}, x...)
	out[len(out)-1] = out[len(out)-1].Not()
	return out
}

// LtS returns 1 iff x < y as two's-complement signed values.
func (b *B) LtS(x, y Bus) xag.Lit {
	return b.LtU(toUnsignedOrder(x), toUnsignedOrder(y))
}

// LeS returns 1 iff x ≤ y as two's-complement signed values.
func (b *B) LeS(x, y Bus) xag.Lit {
	return b.LeU(toUnsignedOrder(x), toUnsignedOrder(y))
}

func normRot(k, w int) int {
	k %= w
	if k < 0 {
		k += w
	}
	return k
}

// RotateLeftConst rotates the bus left (toward the MSB) by k positions:
// out[i] = x[(i−k) mod w], matching bits.RotateLeft on the packed value.
func (b *B) RotateLeftConst(x Bus, k int) Bus {
	w := len(x)
	k = normRot(k, w)
	return append(append(Bus{}, x[w-k:]...), x[:w-k]...)
}

// RotateRightConst rotates the bus right by k positions.
func (b *B) RotateRightConst(x Bus, k int) Bus {
	return b.RotateLeftConst(x, len(x)-normRot(k, len(x)))
}

// ShiftRightConst shifts right by k, filling with zeros.
func (b *B) ShiftRightConst(x Bus, k int) Bus {
	return b.shiftRight(x, k, xag.Const0)
}

// ShiftRightArith shifts right by k, filling with the sign bit.
func (b *B) ShiftRightArith(x Bus, k int) Bus {
	return b.shiftRight(x, k, x[len(x)-1])
}

func (b *B) shiftRight(x Bus, k int, fill xag.Lit) Bus {
	out := make(Bus, len(x))
	for i := range out {
		if i+k < len(x) {
			out[i] = x[i+k]
		} else {
			out[i] = fill
		}
	}
	return out
}

// shiftLeftConst shifts left by k, filling with zeros.
func (b *B) shiftLeftConst(x Bus, k int) Bus {
	out := make(Bus, len(x))
	for i := range out {
		if i-k >= 0 {
			out[i] = x[i-k]
		} else {
			out[i] = xag.Const0
		}
	}
	return out
}

// Barrel shifts x by the variable amount amt (staged naive muxes): left with
// zero fill when right is false, else right with zero (arith false) or sign
// (arith true) fill.
func (b *B) Barrel(x Bus, amt Bus, right, arith bool) Bus {
	cur := append(Bus{}, x...)
	for s, bit := range amt {
		sh := 1 << uint(s)
		var shifted Bus
		switch {
		case !right:
			shifted = b.shiftLeftConst(cur, sh)
		case arith:
			shifted = b.ShiftRightArith(cur, sh)
		default:
			shifted = b.ShiftRightConst(cur, sh)
		}
		cur = b.MuxBusNaive(bit, shifted, cur)
	}
	return cur
}

// Decoder returns the 2^w one-hot decode of sel: line j is 1 iff sel == j.
func (b *B) Decoder(sel Bus) []xag.Lit {
	lines := []xag.Lit{xag.Const1}
	for _, s := range sel {
		next := make([]xag.Lit, 2*len(lines))
		for j, l := range lines {
			next[j] = b.Net.And(l, s.Not())
			next[j+len(lines)] = b.Net.And(l, s)
		}
		lines = next
	}
	return lines
}

// PriorityEncoder returns the index of the lowest set bit of req and a valid
// flag (0 when req is all-zero). The index bus is ⌈log2(w)⌉ bits wide.
func (b *B) PriorityEncoder(req Bus) (Bus, xag.Lit) {
	w := len(req)
	logw := 1
	for 1<<uint(logw) < w {
		logw++
	}
	grants := make([]xag.Lit, w)
	taken := xag.Const0
	for i, r := range req {
		grants[i] = b.Net.And(r, taken.Not())
		taken = b.Net.Or(taken, r)
	}
	idx := make(Bus, logw)
	for bit := range idx {
		acc := xag.Const0
		for i, g := range grants {
			if i>>uint(bit)&1 == 1 {
				acc = b.Net.Or(acc, g)
			}
		}
		idx[bit] = acc
	}
	return idx, taken
}

// Popcount returns the number of set bits of in as a bus (pairwise adder
// tree).
func (b *B) Popcount(in Bus) Bus {
	if len(in) == 0 {
		return Bus{xag.Const0}
	}
	level := make([]Bus, len(in))
	for i, bit := range in {
		level[i] = Bus{bit}
	}
	for len(level) > 1 {
		var next []Bus
		for i := 0; i+1 < len(level); i += 2 {
			x, y := level[i], level[i+1]
			w := len(x)
			if len(y) > w {
				w = len(y)
			}
			sum, carry := b.Add(b.zext(x, w), b.zext(y, w))
			next = append(next, append(sum, carry))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// zext zero-extends a bus to width w.
func (b *B) zext(x Bus, w int) Bus {
	out := append(Bus{}, x...)
	for len(out) < w {
		out = append(out, xag.Const0)
	}
	return out
}
