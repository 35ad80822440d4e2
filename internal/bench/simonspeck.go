package bench

import (
	"math/bits"

	"repro/internal/builder"
	"repro/internal/xag"
)

// Simon and Speck (Beaulieu et al., NSA 2013) are the canonical
// "MPC-friendly by accident" lightweight ciphers: Simon's round function
// uses a single bitwise AND of rotated words (w ANDs per round, XOR
// otherwise), while Speck is add-rotate-xor (its ANDs all come from the
// modular adder's carry chain). They extend the paper's Table 2 with
// circuits at the two extremes of AND structure. Both circuits are checked
// against the software models below, which follow the published
// specification.

// Simon64/96: 32-bit words, 42 rounds, 96-bit key (3 words).
const (
	simonWordBits = 32
	simonRounds   = 42
	simonKeyWords = 3
)

// simonZ is the z2 constant sequence used by Simon64/96 (period 62).
var simonZ = [62]byte{
	1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0,
	1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1,
	1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1,
}

// simonExpandKey derives the round keys of the software model.
func simonExpandKey(key [simonKeyWords]uint32) [simonRounds]uint32 {
	var k [simonRounds]uint32
	copy(k[:], key[:])
	const c = 0xfffffffc
	for i := simonKeyWords; i < simonRounds; i++ {
		tmp := bits.RotateLeft32(k[i-1], -3)
		tmp ^= bits.RotateLeft32(tmp, -1)
		k[i] = ^k[i-simonKeyWords] ^ tmp ^ uint32(simonZ[(i-simonKeyWords)%62]) ^ 3
		_ = c
	}
	return k
}

// simonRef encrypts one 64-bit block with the software model.
func simonRef(x, y uint32, key [simonKeyWords]uint32) (uint32, uint32) {
	k := simonExpandKey(key)
	for i := 0; i < simonRounds; i++ {
		x, y = y^(bits.RotateLeft32(x, 1)&bits.RotateLeft32(x, 8))^bits.RotateLeft32(x, 2)^k[i], x
	}
	return x, y
}

// Simon64 builds the Simon64/96 encryption circuit: exactly
// simonRounds·simonWordBits AND gates before optimization — Simon's round
// AND is already a single layer, so the paper's optimizer should find
// little to improve (like AES).
func Simon64() *xag.Network {
	b := builder.New()
	x := b.Input("x", simonWordBits)
	y := b.Input("y", simonWordBits)
	var keyWords [simonKeyWords]builder.Bus
	for i := range keyWords {
		keyWords[i] = b.Input("k"+string(rune('0'+i)), simonWordBits)
	}

	// Key schedule in-circuit: XOR/rotate only, AND-free.
	rk := make([]builder.Bus, simonRounds)
	for i := 0; i < simonKeyWords; i++ {
		rk[i] = keyWords[i]
	}
	for i := simonKeyWords; i < simonRounds; i++ {
		tmp := b.RotateRightConst(rk[i-1], 3)
		tmp = b.XorBus(tmp, b.RotateRightConst(tmp, 1))
		cst := uint64(simonZ[(i-simonKeyWords)%62]) ^ 3 ^ 0xffffffff
		rk[i] = b.XorBus(b.XorBus(rk[i-simonKeyWords], tmp), b.Const(cst, simonWordBits))
	}

	for i := 0; i < simonRounds; i++ {
		f := b.AndBus(b.RotateLeftConst(x, 1), b.RotateLeftConst(x, 8))
		newX := b.XorBus(b.XorBus(b.XorBus(y, f), b.RotateLeftConst(x, 2)), rk[i])
		x, y = newX, x
	}
	b.Output("ctx", x)
	b.Output("cty", y)
	return b.Net
}

// Speck64/96: 32-bit words, 26 rounds, 96-bit key.
const (
	speckRounds   = 26
	speckKeyWords = 3
)

func speckRound(x, y, k uint32) (uint32, uint32) {
	x = bits.RotateLeft32(x, -8)
	x += y
	x ^= k
	y = bits.RotateLeft32(y, 3)
	y ^= x
	return x, y
}

// speckRef encrypts one 64-bit block with the software model.
func speckRef(x, y uint32, key [speckKeyWords]uint32) (uint32, uint32) {
	k := key[0]
	l := [speckRounds + speckKeyWords - 2]uint32{}
	copy(l[:], key[1:])
	for i := 0; i < speckRounds; i++ {
		x, y = speckRound(x, y, k)
		if i < speckRounds-1 {
			l[i+speckKeyWords-1], k = speckKeyRound(l[i], k, uint32(i))
		}
	}
	return x, y
}

func speckKeyRound(l, k, i uint32) (uint32, uint32) {
	l = bits.RotateLeft32(l, -8)
	l += k
	l ^= i
	k = bits.RotateLeft32(k, 3)
	k ^= l
	return l, k
}

// Speck64 builds the Speck64/96 encryption circuit with the key schedule
// in-circuit. All AND gates come from the modular adders; the optimizer
// should collapse each 3-AND-per-bit carry chain to the 1-AND optimum,
// approaching a third of the initial count, as for the Table 2 adders.
func Speck64() *xag.Network {
	b := builder.New()
	x := b.Input("x", 32)
	y := b.Input("y", 32)
	var keyWords [speckKeyWords]builder.Bus
	for i := range keyWords {
		keyWords[i] = b.Input("k"+string(rune('0'+i)), 32)
	}

	// One Speck round with an arbitrary mixed-in word (the round key during
	// encryption, the round counter in the key schedule).
	round := func(x, y, mix builder.Bus) (builder.Bus, builder.Bus) {
		x = b.RotateRightConst(x, 8)
		x = b.AddMod(x, y)
		x = b.XorBus(x, mix)
		y = b.RotateLeftConst(y, 3)
		y = b.XorBus(y, x)
		return x, y
	}

	k := keyWords[0]
	l := make([]builder.Bus, speckRounds+speckKeyWords-2)
	copy(l, keyWords[1:])
	for i := 0; i < speckRounds; i++ {
		x, y = round(x, y, k)
		if i < speckRounds-1 {
			nl, nk := round(l[i], k, b.Const(uint64(i), 32))
			l[i+speckKeyWords-1], k = nl, nk
		}
	}
	b.Output("ctx", x)
	b.Output("cty", y)
	return b.Net
}
