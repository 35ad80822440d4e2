package bench

import (
	"math"
	"math/big"

	"repro/internal/builder"
	"repro/internal/xag"
)

// The hash benchmarks are single-block compression circuits with the
// standard initial values baked in: the circuit input is one padded 512-bit
// message block (as 16 32-bit words m0..m15 in the hash's native word
// order), the output is the digest. The package tests verify each circuit
// bit-for-bit against crypto/md5, crypto/sha1 and crypto/sha256.
//
// Boolean choice/majority functions and all adders use the naive multi-AND
// forms found in the public MPC netlists, leaving the optimizer the same
// reductions the paper reports (Ch and Maj collapse to 1-2 ANDs, 32-bit
// additions approach 31 ANDs).

func inputWords(b *builder.B, n int) []builder.Bus {
	ws := make([]builder.Bus, n)
	for i := range ws {
		ws[i] = b.Input(wordName(i), 32)
	}
	return ws
}

func wordName(i int) string {
	return "m" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// chNaive returns (x∧y) ∨ (¬x∧z) bitwise — 3 ANDs per bit before
// optimization, 1 after.
func chNaive(b *builder.B, x, y, z builder.Bus) builder.Bus {
	out := make(builder.Bus, len(x))
	for i := range out {
		out[i] = b.MuxNaive(x[i], y[i], z[i])
	}
	return out
}

// majNaive returns the bitwise majority in or-of-ands form — 5 ANDs per bit
// before optimization, 1 after.
func majNaive(b *builder.B, x, y, z builder.Bus) builder.Bus {
	out := make(builder.Bus, len(x))
	for i := range out {
		ab := b.Net.And(x[i], y[i])
		ac := b.Net.And(x[i], z[i])
		bc := b.Net.And(y[i], z[i])
		out[i] = b.Net.Or(b.Net.Or(ab, ac), bc)
	}
	return out
}

func parity3(b *builder.B, x, y, z builder.Bus) builder.Bus {
	return b.XorBus(b.XorBus(x, y), z)
}

func addW(b *builder.B, xs ...builder.Bus) builder.Bus {
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = b.AddMod(acc, x)
	}
	return acc
}

// MD5Block builds the MD5 compression of one padded block with the standard
// IV (RFC 1321).
func MD5Block() *xag.Network {
	b := builder.New()
	m := inputWords(b, 16)

	k := make([]uint64, 64)
	for i := range k {
		k[i] = uint64(uint32(math.Floor(math.Abs(math.Sin(float64(i+1))) * 4294967296)))
	}
	shifts := [4][4]int{
		{7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21},
	}

	a := b.Const(0x67452301, 32)
	bb := b.Const(0xefcdab89, 32)
	c := b.Const(0x98badcfe, 32)
	d := b.Const(0x10325476, 32)
	a0, b0, c0, d0 := a, bb, c, d

	for i := 0; i < 64; i++ {
		var f builder.Bus
		var g int
		switch {
		case i < 16:
			f = chNaive(b, bb, c, d) // F = (B∧C)∨(¬B∧D)
			g = i
		case i < 32:
			f = chNaive(b, d, bb, c) // G = (D∧B)∨(¬D∧C)
			g = (5*i + 1) % 16
		case i < 48:
			f = parity3(b, bb, c, d)
			g = (3*i + 5) % 16
		default:
			// I = C ⊕ (B ∨ ¬D)
			f = make(builder.Bus, 32)
			for j := range f {
				f[j] = b.Net.Xor(c[j], b.Net.Or(bb[j], d[j].Not()))
			}
			g = (7 * i) % 16
		}
		sum := addW(b, a, f, b.Const(k[i], 32), m[g])
		rot := b.RotateLeftConst(sum, shifts[i/16][i%4])
		a, d, c, bb = d, c, bb, addW(b, bb, rot)
	}

	b.Output("h0", addW(b, a0, a))
	b.Output("h1", addW(b, b0, bb))
	b.Output("h2", addW(b, c0, c))
	b.Output("h3", addW(b, d0, d))
	return b.Net
}

// SHA1Block builds the SHA-1 compression of one padded block with the
// standard IV (FIPS 180-4).
func SHA1Block() *xag.Network {
	b := builder.New()
	m := inputWords(b, 16)

	w := make([]builder.Bus, 80)
	copy(w, m)
	for t := 16; t < 80; t++ {
		x := b.XorBus(b.XorBus(w[t-3], w[t-8]), b.XorBus(w[t-14], w[t-16]))
		w[t] = b.RotateLeftConst(x, 1)
	}

	a := b.Const(0x67452301, 32)
	bb := b.Const(0xefcdab89, 32)
	c := b.Const(0x98badcfe, 32)
	d := b.Const(0x10325476, 32)
	e := b.Const(0xc3d2e1f0, 32)
	a0, b0, c0, d0, e0 := a, bb, c, d, e

	for t := 0; t < 80; t++ {
		var f builder.Bus
		var k uint64
		switch {
		case t < 20:
			f, k = chNaive(b, bb, c, d), 0x5a827999
		case t < 40:
			f, k = parity3(b, bb, c, d), 0x6ed9eba1
		case t < 60:
			f, k = majNaive(b, bb, c, d), 0x8f1bbcdc
		default:
			f, k = parity3(b, bb, c, d), 0xca62c1d6
		}
		tmp := addW(b, b.RotateLeftConst(a, 5), f, e, b.Const(k, 32), w[t])
		e, d, c, bb, a = d, c, b.RotateLeftConst(bb, 30), a, tmp
	}

	for i, pair := range []struct {
		init, cur builder.Bus
	}{{a0, a}, {b0, bb}, {c0, c}, {d0, d}, {e0, e}} {
		b.Output("h"+string(rune('0'+i)), addW(b, pair.init, pair.cur))
	}
	return b.Net
}

// sha256K returns the 64 round constants: the first 32 bits of the
// fractional parts of the cube roots of the first 64 primes, computed with
// big.Float so no table needs to be transcribed.
func sha256K() []uint64 {
	primes := firstPrimes(64)
	k := make([]uint64, 64)
	for i, p := range primes {
		k[i] = fracRootBits(p, 3)
	}
	return k
}

func firstPrimes(n int) []int {
	var out []int
	for c := 2; len(out) < n; c++ {
		prime := true
		for d := 2; d*d <= c; d++ {
			if c%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			out = append(out, c)
		}
	}
	return out
}

// fracRootBits returns the first 32 fractional bits of p^(1/root).
func fracRootBits(p, root int) uint64 { return fracRootFrac(p, root, 32) }

// fracRootFrac returns the first `bits` fractional bits of p^(1/root).
func fracRootFrac(p, root, bits int) uint64 {
	const prec = 192
	x := new(big.Float).SetPrec(prec).SetInt64(int64(p))
	// Newton iteration for the root-th root: y ← y − (y^r − x)/(r·y^(r−1)).
	y := new(big.Float).SetPrec(prec).SetFloat64(math.Pow(float64(p), 1/float64(root)))
	r := new(big.Float).SetPrec(prec).SetInt64(int64(root))
	for iter := 0; iter < 64; iter++ {
		yr1 := new(big.Float).SetPrec(prec).SetInt64(1) // y^(r−1)
		for j := 0; j < root-1; j++ {
			yr1.Mul(yr1, y)
		}
		yr := new(big.Float).SetPrec(prec).Mul(yr1, y) // y^r
		num := new(big.Float).SetPrec(prec).Sub(yr, x)
		den := new(big.Float).SetPrec(prec).Mul(r, yr1)
		delta := new(big.Float).SetPrec(prec).Quo(num, den)
		y.Sub(y, delta)
	}
	// frac(y) · 2^bits, truncated.
	intPart, _ := y.Int(nil)
	frac := new(big.Float).SetPrec(prec).Sub(y, new(big.Float).SetPrec(prec).SetInt(intPart))
	scale := new(big.Float).SetPrec(prec).SetInt64(1)
	for i := 0; i < bits; i++ {
		scale.Mul(scale, big.NewFloat(2))
	}
	frac.Mul(frac, scale)
	out, _ := frac.Int(nil)
	return out.Uint64()
}

// SHA256Round builds a single SHA-256 compression round: the eight working
// variables a..h and one message-schedule word enter as primary inputs, the
// first round constant K[0] is baked in, and the updated variables come out.
// One round isolates the Ch/Maj/Σ structure whose multiplicative depth is
// dominated by the T1 and T2 carry chains, which makes it the natural
// depth-optimization benchmark next to the pure adders.
func SHA256Round() *xag.Network {
	b := builder.New()
	vars := make([]builder.Bus, 8)
	for i := range vars {
		vars[i] = b.Input("v"+string(rune('0'+i)), 32)
	}
	w := b.Input("w", 32)
	k0 := sha256K()[0]

	rotr := func(x builder.Bus, r int) builder.Bus { return b.RotateRightConst(x, r) }
	xor3 := func(x, y, z builder.Bus) builder.Bus { return b.XorBus(b.XorBus(x, y), z) }

	a, bb, c, d, e, f, g, hh := vars[0], vars[1], vars[2], vars[3], vars[4], vars[5], vars[6], vars[7]
	sig1 := xor3(rotr(e, 6), rotr(e, 11), rotr(e, 25))
	ch := chNaive(b, e, f, g)
	t1 := addW(b, hh, sig1, ch, b.Const(k0, 32), w)
	sig0 := xor3(rotr(a, 2), rotr(a, 13), rotr(a, 22))
	maj := majNaive(b, a, bb, c)
	t2 := addW(b, sig0, maj)
	hh, g, f, e, d, c, bb, a = g, f, e, addW(b, d, t1), c, bb, a, addW(b, t1, t2)

	for i, out := range []builder.Bus{a, bb, c, d, e, f, g, hh} {
		b.Output("v"+string(rune('0'+i)), out)
	}
	return b.Net
}

// SHA256Block builds the SHA-256 compression of one padded block with the
// standard IV (FIPS 180-4).
func SHA256Block() *xag.Network {
	b := builder.New()
	m := inputWords(b, 16)
	k := sha256K()

	rotr := func(x builder.Bus, r int) builder.Bus { return b.RotateRightConst(x, r) }
	shr := func(x builder.Bus, r int) builder.Bus { return b.ShiftRightConst(x, r) }
	xor3 := func(x, y, z builder.Bus) builder.Bus { return b.XorBus(b.XorBus(x, y), z) }

	w := make([]builder.Bus, 64)
	copy(w, m)
	for t := 16; t < 64; t++ {
		s0 := xor3(rotr(w[t-15], 7), rotr(w[t-15], 18), shr(w[t-15], 3))
		s1 := xor3(rotr(w[t-2], 17), rotr(w[t-2], 19), shr(w[t-2], 10))
		w[t] = addW(b, s1, w[t-7], s0, w[t-16])
	}

	iv := []uint64{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	}
	h := make([]builder.Bus, 8)
	for i := range h {
		h[i] = b.Const(iv[i], 32)
	}
	a, bb, c, d, e, f, g, hh := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]

	for t := 0; t < 64; t++ {
		sig1 := xor3(rotr(e, 6), rotr(e, 11), rotr(e, 25))
		ch := chNaive(b, e, f, g)
		t1 := addW(b, hh, sig1, ch, b.Const(k[t], 32), w[t])
		sig0 := xor3(rotr(a, 2), rotr(a, 13), rotr(a, 22))
		maj := majNaive(b, a, bb, c)
		t2 := addW(b, sig0, maj)
		hh, g, f, e, d, c, bb, a = g, f, e, addW(b, d, t1), c, bb, a, addW(b, t1, t2)
	}

	cur := []builder.Bus{a, bb, c, d, e, f, g, hh}
	for i := range h {
		b.Output("h"+string(rune('0'+i)), addW(b, h[i], cur[i]))
	}
	return b.Net
}
