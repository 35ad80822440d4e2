package bench

import (
	"repro/internal/builder"
	"repro/internal/xag"
)

// Arbiter builds a w-input round-robin arbiter: a pointer selects the
// highest-priority requester cyclically; grants are one-hot. Like the EPFL
// arbiter, the circuit is pure AND/OR priority logic, so the MC optimizer
// finds nothing to improve (0 % in Table 1).
func Arbiter(w int) *xag.Network {
	b := builder.New()
	req := b.Input("req", w)
	logw := 0
	for 1<<uint(logw) < w {
		logw++
	}
	ptr := b.Input("ptr", logw)

	// mask[i] = (i >= ptr): thermometer code from the one-hot decoder.
	onehot := b.Decoder(ptr)[:w]
	mask := make([]xag.Lit, w)
	run := xag.Const0
	for i := 0; i < w; i++ {
		run = b.Net.Or(run, onehot[i])
		mask[i] = run
	}

	fixedPriority := func(in []xag.Lit) ([]xag.Lit, xag.Lit) {
		grants := make([]xag.Lit, len(in))
		taken := xag.Const0
		for i := range in {
			grants[i] = b.Net.And(in[i], taken.Not())
			taken = b.Net.Or(taken, in[i])
		}
		return grants, taken
	}

	masked := make([]xag.Lit, w)
	for i := range masked {
		masked[i] = b.Net.And(req[i], mask[i])
	}
	gHi, anyHi := fixedPriority(masked)
	gLo, anyLo := fixedPriority(req)
	grants := make(builder.Bus, w)
	for i := range grants {
		grants[i] = b.MuxNaive(anyHi, gHi[i], gLo[i])
	}
	b.Output("grant", grants)
	b.Output("valid", builder.Bus{b.Net.Or(anyHi, anyLo)})
	return b.Net
}

// ALUControl builds a MIPS-style ALU control unit: a 2-bit ALU op and a
// 4-bit function code decode into a one-hot operation bundle plus derived
// control flags.
func ALUControl() *xag.Network {
	b := builder.New()
	aluop := b.Input("aluop", 2)
	funct := b.Input("funct", 4)
	flag := b.Input("flag", 1)

	n := b.Net
	dec := b.Decoder(funct) // 16 lines
	isR := n.And(aluop[1], aluop[0].Not())
	ops := make(builder.Bus, 0, 26)
	// One-hot op lines under R-type decode.
	for i := 0; i < 16; i++ {
		ops = append(ops, n.And(isR, dec[i]))
	}
	// Derived controls.
	addOp := n.And(aluop[0].Not(), aluop[1].Not())
	subOp := n.And(aluop[0], aluop[1].Not())
	ops = append(ops,
		addOp,
		subOp,
		n.Or(subOp, n.And(isR, dec[2])),       // subtract select
		n.And(isR, n.Or(dec[4], dec[5])),      // logic select
		n.And(flag[0], n.Or(addOp, subOp)),    // flag-qualified op
		n.Xor(aluop[0], aluop[1]),             // mode parity
		n.And(n.Xor(funct[0], funct[1]), isR), // funct parity low
		n.And(n.Xor(funct[2], funct[3]), isR), // funct parity high
		n.Or(n.And(isR, dec[10]), subOp),      // set-less-than
		n.And(aluop[1], aluop[0]),             // invalid op
	)
	b.Output("ctl", ops)
	return b.Net
}

// controlTerm is one product term of a seeded two-level control block: a
// set of input literals (index, polarity).
type controlTerm struct {
	vars []int
	pol  []bool
}

// controlSpec deterministically derives a two-level AND-OR specification
// from a name. Both the circuit generator and the software reference
// evaluate the same spec, standing in for the irregular control-logic
// benchmarks of the EPFL suite (cavlc, i2c, mem_ctrl) whose netlists are
// not re-derivable from first principles; see DESIGN.md.
func controlSpec(name string, in, out, terms int) [][]controlTerm {
	seed := uint64(0x9e3779b97f4a7c15)
	for _, c := range name {
		seed = (seed ^ uint64(c)) * 0xbf58476d1ce4e5b9
	}
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	spec := make([][]controlTerm, out)
	perOut := terms / out
	if perOut < 1 {
		perOut = 1
	}
	for o := range spec {
		nt := 1 + int(next()%uint64(perOut*2))
		for t := 0; t < nt; t++ {
			k := 2 + int(next()%3) // 2..4 literals per product
			term := controlTerm{}
			used := map[int]bool{}
			for len(term.vars) < k {
				v := int(next() % uint64(in))
				if used[v] {
					continue
				}
				used[v] = true
				term.vars = append(term.vars, v)
				term.pol = append(term.pol, next()&1 == 1)
			}
			spec[o] = append(spec[o], term)
		}
	}
	return spec
}

// evalControlSpec is the software reference for ControlLogic.
func evalControlSpec(spec [][]controlTerm, input uint64) uint64 {
	var out uint64
	for o, terms := range spec {
		for _, t := range terms {
			match := true
			for i, v := range t.vars {
				bit := input>>uint(v)&1 == 1
				if bit != t.pol[i] {
					match = false
					break
				}
			}
			if match {
				out |= 1 << uint(o)
				break
			}
		}
	}
	return out
}

// ControlLogic builds the seeded two-level control block named name.
func ControlLogic(name string, in, out, terms int) *xag.Network {
	b := builder.New()
	x := b.Input("x", in)
	spec := controlSpec(name, in, out, terms)
	res := make(builder.Bus, out)
	for o, ts := range spec {
		acc := xag.Const0
		for _, t := range ts {
			prod := xag.Const1
			for i, v := range t.vars {
				prod = b.Net.And(prod, x[v].NotIf(!t.pol[i]))
			}
			acc = b.Net.Or(acc, prod)
		}
		res[o] = acc
	}
	b.Output("y", res)
	return b.Net
}

// Decoder builds the w-to-2^w one-hot decoder (EPFL "dec"; pure AND logic,
// 0 % improvement expected).
func Decoder(w int) *xag.Network {
	b := builder.New()
	sel := b.Input("sel", w)
	b.Output("onehot", builder.Bus(b.Decoder(sel)))
	return b.Net
}

// IntToFloat converts an 11-bit two's-complement integer to a 7-bit float
// (1 sign, 3 exponent, 3 mantissa bits, truncating) — the EPFL "int2float"
// interface.
func IntToFloat() *xag.Network {
	const w = 11
	b := builder.New()
	x := b.Input("x", w)
	sign := x[w-1]
	mag := b.MuxBusNaive(sign, b.Neg(x), x)

	// Position of the leading one (0 when the magnitude is zero).
	logw := 4
	msb := b.Const(0, logw)
	nonzero := xag.Const0
	for i := 0; i < w; i++ {
		msb = b.MuxBusNaive(mag[i], b.Const(uint64(i), logw), msb)
		nonzero = b.Net.Or(nonzero, mag[i])
	}
	// exponent = clamp(msb − 3, 0..7); values below 3 are subnormal-ish and
	// map to exponent 0 with the raw low bits as mantissa.
	small := b.LtU(msb, b.Const(3, logw))
	expFull, _ := b.Sub(msb, b.Const(3, logw))
	exp := b.MuxBusNaive(small, b.Const(0, 3), expFull[:3])

	// mantissa: the three bits below the leading one, obtained by
	// normalizing left so the leading one lands at bit w−1.
	inv := b.SubConst(uint64(w-1), msb)
	norm := b.Barrel(mag, inv, false, false) // leading one at bit w−1
	mant := builder.Bus{norm[w-4], norm[w-3], norm[w-2]}
	mantSmall := builder.Bus{mag[0], mag[1], mag[2]}
	mant = b.MuxBusNaive(small, mantSmall, mant)

	out := append(append(builder.Bus{}, mant...), exp...)
	out = append(out, sign)
	zero := b.Const(0, 7)
	b.Output("f", b.MuxBusNaive(nonzero, out, zero))
	return b.Net
}

// PriorityEncoder builds the w-to-log(w) priority encoder (EPFL "priority").
func PriorityEncoder(w int) *xag.Network {
	b := builder.New()
	req := b.Input("req", w)
	idx, valid := b.PriorityEncoder(req)
	b.Output("idx", idx)
	b.Output("valid", builder.Bus{valid})
	return b.Net
}

// Router builds a lookahead XY mesh router: from current and destination
// coordinates it derives the output direction for this hop and the next
// (EPFL "router" interface, simplified).
func Router(w int) *xag.Network {
	b := builder.New()
	curX := b.Input("cur_x", w)
	curY := b.Input("cur_y", w)
	dstX := b.Input("dst_x", w)
	dstY := b.Input("dst_y", w)
	n := b.Net

	dir := func(cx, cy builder.Bus) builder.Bus {
		eqX := b.EqBus(cx, dstX)
		eqY := b.EqBus(cy, dstY)
		east := b.LtU(cx, dstX)
		north := b.LtU(cy, dstY)
		// XY routing: resolve X first, then Y.
		return builder.Bus{
			n.And(eqX.Not(), east),                    // E
			n.And(eqX.Not(), east.Not()),              // W
			n.And(eqX, n.And(eqY.Not(), north)),       // N
			n.And(eqX, n.And(eqY.Not(), north.Not())), // S
			n.And(eqX, eqY),                           // local
		}
	}

	now := dir(curX, curY)
	// Lookahead: coordinates after taking the chosen hop.
	one := b.Const(1, w)
	nextX := b.MuxBusNaive(now[0], b.AddMod(curX, one), curX)
	decX, _ := b.Sub(curX, one)
	nextX = b.MuxBusNaive(now[1], decX, nextX)
	nextY := b.MuxBusNaive(now[2], b.AddMod(curY, one), curY)
	decY, _ := b.Sub(curY, one)
	nextY = b.MuxBusNaive(now[3], decY, nextY)
	next := dir(nextX, nextY)

	b.Output("dir_now", now)
	b.Output("dir_next", next)
	return b.Net
}

// Voter builds the majority function of n (odd) inputs via a popcount tree
// and comparator (EPFL "voter").
func Voter(n int) *xag.Network {
	b := builder.New()
	in := b.Input("x", n)
	pc := b.Popcount(in)
	maj := b.LtU(b.Const(uint64(n/2), len(pc)), pc)
	b.Output("maj", builder.Bus{maj})
	return b.Net
}

// Comparator builds the Table 2 single-output comparators.
func Comparator(w int, signed, orEqual bool) *xag.Network {
	b := builder.New()
	x := b.Input("x", w)
	y := b.Input("y", w)
	var out xag.Lit
	switch {
	case signed && orEqual:
		out = b.LeS(x, y)
	case signed:
		out = b.LtS(x, y)
	case orEqual:
		out = b.LeU(x, y)
	default:
		out = b.LtU(x, y)
	}
	b.Output("cmp", builder.Bus{out})
	return b.Net
}
