package bench

import (
	"repro/internal/builder"
	"repro/internal/xag"
)

// Adder builds a w-bit ripple-carry adder with carry-out using the naive
// 3-AND full adder (EPFL "adder"; also Table 2's 32/64-bit adders).
func Adder(w int) *xag.Network {
	b := builder.New()
	x := b.Input("x", w)
	y := b.Input("y", w)
	sum, carry := b.Add(x, y)
	b.Output("sum", sum)
	b.Output("cout", builder.Bus{carry})
	return b.Net
}

// BarrelShifter builds a w-bit rotate-left by a variable amount out of
// and-or muxes (EPFL "bar": its un-optimized netlist has exactly
// 3·w·log2(w) AND gates, which the optimizer reduces to w·log2(w)).
func BarrelShifter(w int) *xag.Network {
	b := builder.New()
	data := b.Input("data", w)
	logw := 0
	for 1<<uint(logw) < w {
		logw++
	}
	amt := b.Input("amt", logw)
	cur := data
	for s, bit := range amt {
		shifted := b.RotateLeftConst(cur, 1<<uint(s))
		cur = b.MuxBusNaive(bit, shifted, cur)
	}
	b.Output("out", cur)
	return b.Net
}

// Divisor builds a w-bit restoring divider producing quotient and remainder
// (EPFL "div", width-reduced).
func Divisor(w int) *xag.Network {
	b := builder.New()
	num := b.Input("num", w)
	den := b.Input("den", w)
	// Restoring division: shift the numerator in from the MSB side into a
	// remainder register, subtract, keep the difference when it does not
	// borrow.
	rem := b.Const(0, w+1)
	den1 := append(append(builder.Bus{}, den...), xag.Const0)
	quo := make(builder.Bus, w)
	for i := w - 1; i >= 0; i-- {
		// rem = rem<<1 | num[i]
		rem = append(builder.Bus{num[i]}, rem[:w]...)
		diff, noBorrow := b.Sub(rem, den1)
		quo[i] = noBorrow
		rem = b.MuxBusNaive(noBorrow, diff, rem)
	}
	b.Output("quo", quo)
	b.Output("rem", rem[:w])
	return b.Net
}

// Log2 builds a fixed-point base-2 logarithm of a w-bit integer: the
// integer part is the index of the leading one; frac fractional bits are
// produced by the classical normalize-and-square recurrence (EPFL "log2",
// width-reduced). Inputs equal to zero yield zero.
func Log2(w int) *xag.Network {
	const frac = 6
	b := builder.New()
	x := b.Input("x", w)

	// Find the leading one: msb = index of highest set bit.
	logw := 0
	for 1<<uint(logw) < w {
		logw++
	}
	msb := b.Const(0, logw)
	valid := xag.Const0
	for i := 0; i < w; i++ {
		msb = b.MuxBusNaive(x[i], b.Const(uint64(i), logw), msb)
		valid = b.Net.Or(valid, x[i])
	}
	// Normalize: shift left so the leading one lands at position w−1.
	inv := b.SubConst(uint64(w-1), msb)
	norm := b.Barrel(x, inv, false, false)

	// Fractional bits: repeatedly square the normalized mantissa
	// (interpreted as 1.ffff); each squaring's overflow bit is the next
	// fraction bit. Mantissa truncated to 8 bits to bound the multipliers.
	const mw = 8
	mant := norm[w-mw:]
	var fbits builder.Bus
	for k := 0; k < frac; k++ {
		sq := b.Mul(mant, mant) // 2·mw bits, value in [1,4)
		top := sq[len(sq)-1]    // ≥ 2 ⇒ fraction bit 1
		fbits = append(builder.Bus{top}, fbits...)
		// If ≥ 2, renormalize by taking the top mw bits, else the next ones.
		hi := sq[len(sq)-mw:]
		lo := sq[len(sq)-mw-1 : len(sq)-1]
		mant = b.MuxBusNaive(top, hi, lo)
	}
	out := append(append(builder.Bus{}, fbits...), msb...)
	zero := b.Const(0, len(out))
	b.Output("log2", b.MuxBusNaive(valid, out, zero))
	return b.Net
}

// Max builds the maximum of four w-bit unsigned values plus the 2-bit index
// of the winner (EPFL "max" computes the maximum of packed values).
func Max(w int) *xag.Network {
	b := builder.New()
	in := make([]builder.Bus, 4)
	for i := range in {
		in[i] = b.Input([]string{"a0", "a1", "a2", "a3"}[i], w)
	}
	max01 := b.MuxBusNaive(b.LtU(in[0], in[1]), in[1], in[0])
	idx01 := b.LtU(in[0], in[1])
	max23 := b.MuxBusNaive(b.LtU(in[2], in[3]), in[3], in[2])
	idx23 := b.LtU(in[2], in[3])
	sel := b.LtU(max01, max23)
	b.Output("max", b.MuxBusNaive(sel, max23, max01))
	b.Output("idx", builder.Bus{b.Net.Mux(sel, idx23, idx01), sel})
	return b.Net
}

// Multiplier builds the full 2w-bit product of two w-bit inputs (EPFL
// "multiplier"; Table 2's 32×32 multiplier).
func Multiplier(w int) *xag.Network {
	b := builder.New()
	x := b.Input("x", w)
	y := b.Input("y", w)
	b.Output("p", b.Mul(x, y))
	return b.Net
}

// Sine approximates sin on a w-bit angle with a CORDIC rotation pipeline
// (EPFL "sine", width-reduced). The angle covers [0, π/2).
func Sine(w int) *xag.Network {
	b := builder.New()
	angle := b.Input("angle", w)

	// Fixed-point format: w+2 bits, w fractional. CORDIC gain compensated
	// in the initial x value.
	ww := w + 2
	ext := func(bus builder.Bus) builder.Bus {
		out := append(builder.Bus{}, bus...)
		for len(out) < ww {
			out = append(out, xag.Const0)
		}
		return out
	}
	// K = 0.607252935..., x0 = K in w fractional bits.
	k := uint64(0.6072529350088813 * float64(uint64(1)<<uint(w)))
	x := b.Const(k, ww)
	y := b.Const(0, ww)
	z := ext(angle)

	for i := 0; i < w; i++ {
		// atan(2^-i) in w fractional bits.
		at := uint64(atan2i(i) * float64(uint64(1)<<uint(w)))
		sign := z[ww-1] // rotate clockwise when z is negative
		xs := b.ShiftRightArith(x, i)
		ys := b.ShiftRightArith(y, i)
		xAdd := b.AddMod(x, ys)
		xSub, _ := b.Sub(x, ys)
		yAdd := b.AddMod(y, xs)
		ySub, _ := b.Sub(y, xs)
		zAdd := b.AddMod(z, b.Const(at, ww))
		zSub, _ := b.Sub(z, b.Const(at, ww))
		x = b.MuxBusNaive(sign, xAdd, xSub)
		y = b.MuxBusNaive(sign, ySub, yAdd)
		z = b.MuxBusNaive(sign, zAdd, zSub)
	}
	b.Output("sin", y)
	return b.Net
}

func atan2i(i int) float64 {
	// atan(2^-i) / 1 — enough precision from a tiny series-free table
	// computed at generation time.
	x := 1.0
	for k := 0; k < i; k++ {
		x /= 2
	}
	// arctangent via math-free Newton is overkill; use the Taylor series,
	// which converges fast for x ≤ 1.
	term := x
	sum := 0.0
	x2 := x * x
	for k := 0; k < 40; k++ {
		if k%2 == 0 {
			sum += term / float64(2*k+1)
		} else {
			sum -= term / float64(2*k+1)
		}
		term *= x2
	}
	return sum
}

// SquareRoot builds the integer square root of a w-bit input by restoring
// bit-by-bit extraction (EPFL "sqrt", width-reduced). w must be even.
func SquareRoot(w int) *xag.Network {
	b := builder.New()
	x := b.Input("x", w)
	hw := w / 2
	r := hw + 2 // remainder width: the invariant rem < 2·root + 2 keeps it here
	root := b.Const(0, hw)
	rem := b.Const(0, r)
	for i := hw - 1; i >= 0; i-- {
		// rem = rem<<2 | next two bits of x (MSB-first pairs).
		rem = append(builder.Bus{x[2*i], x[2*i+1]}, rem[:r-2]...)
		// Candidate subtrahend: root<<2 | 01.
		cand := append(builder.Bus{xag.Const1, xag.Const0}, root...)
		diff, noBorrow := b.Sub(rem, cand)
		rem = b.MuxBusNaive(noBorrow, diff, rem)
		// root = root<<1 | noBorrow.
		root = append(builder.Bus{noBorrow}, root[:hw-1]...)
	}
	b.Output("root", root)
	return b.Net
}

// Square builds x² (EPFL "square", width-reduced).
func Square(w int) *xag.Network {
	b := builder.New()
	x := b.Input("x", w)
	b.Output("sq", b.Mul(x, x))
	return b.Net
}
