// Package tt implements truth tables for Boolean functions of up to six
// variables, stored in a single uint64.
//
// The minterm convention is the usual one: bit m of the table (for
// 0 ≤ m < 2^n) holds f(x) where the i-th input variable x_i takes the value
// of bit i of m. For n < 6 only the low 2^n bits are significant; all
// operations keep the unused high bits at zero so that tables compare equal
// with ==.
package tt

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxVars is the largest number of variables a T can represent.
const MaxVars = 6

// T is a truth table over N variables (0 ≤ N ≤ 6).
type T struct {
	Bits uint64
	N    int
}

// varMasks[i] is the truth table of the projection x_i over six variables.
var varMasks = [MaxVars]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

// Mask returns the bit mask covering the 2^n significant bits of an n-variable
// table.
func Mask(n int) uint64 {
	if n >= MaxVars {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << uint(n))) - 1
}

// New returns an n-variable table with the given bits, masked to the
// significant region.
func New(bits uint64, n int) T {
	checkN(n)
	return T{Bits: bits & Mask(n), N: n}
}

func checkN(n int) {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: invalid variable count %d", n))
	}
}

// Const0 returns the n-variable constant-false table.
func Const0(n int) T { checkN(n); return T{0, n} }

// Const1 returns the n-variable constant-true table.
func Const1(n int) T { checkN(n); return T{Mask(n), n} }

// Var returns the projection table of variable i over n variables.
func Var(i, n int) T {
	checkN(n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tt: variable %d out of range for %d variables", i, n))
	}
	return T{varMasks[i] & Mask(n), n}
}

// Size returns the number of minterms, 2^N.
func (t T) Size() int { return 1 << uint(t.N) }

// Get returns the value of the function on minterm m.
func (t T) Get(m int) bool { return t.Bits>>(uint(m))&1 == 1 }

// Set returns a copy of t with minterm m set to v.
func (t T) Set(m int, v bool) T {
	if v {
		t.Bits |= 1 << uint(m)
	} else {
		t.Bits &^= 1 << uint(m)
	}
	return t
}

// Not returns the complement of t.
func (t T) Not() T { return T{^t.Bits & Mask(t.N), t.N} }

// And returns t ∧ u. The tables must have the same variable count.
func (t T) And(u T) T { t.check(u); return T{t.Bits & u.Bits, t.N} }

// Or returns t ∨ u.
func (t T) Or(u T) T { t.check(u); return T{t.Bits | u.Bits, t.N} }

// Xor returns t ⊕ u.
func (t T) Xor(u T) T { t.check(u); return T{t.Bits ^ u.Bits, t.N} }

func (t T) check(u T) {
	if t.N != u.N {
		panic(fmt.Sprintf("tt: mixing %d- and %d-variable tables", t.N, u.N))
	}
}

// IsConst0 reports whether t is the constant-false function.
func (t T) IsConst0() bool { return t.Bits == 0 }

// IsConst1 reports whether t is the constant-true function.
func (t T) IsConst1() bool { return t.Bits == Mask(t.N) }

// Cofactor returns the cofactor of t with variable i fixed to v. The result
// no longer depends on x_i but keeps the same variable count.
func (t T) Cofactor(i int, v bool) T {
	m := varMasks[i]
	var half uint64
	if v {
		half = t.Bits & m
		half |= half >> (1 << uint(i))
	} else {
		half = t.Bits &^ m
		half |= half << (1 << uint(i))
	}
	return T{half & Mask(t.N), t.N}
}

// DependsOn reports whether the function depends on variable i.
func (t T) DependsOn(i int) bool {
	m := varMasks[i]
	return (t.Bits&m)>>(1<<uint(i)) != t.Bits&^m
}

// SupportMask returns a bit mask of the variables the function depends on.
func (t T) SupportMask() uint {
	var s uint
	for i := 0; i < t.N; i++ {
		if t.DependsOn(i) {
			s |= 1 << uint(i)
		}
	}
	return s
}

// Shrink removes don't-care variables, compacting the support to the low
// variable indices. It returns the shrunk table and t.SupportMask(): shrunk
// variable j is the original variable at the j-th set bit of the mask.
func (t T) Shrink() (T, uint) {
	support := t.SupportMask()
	k := bits.OnesCount(support)
	if k == t.N {
		return t, support
	}
	// Move the supporting variables down to positions 0..k-1 in order.
	// Shifting a variable down displaces the ones between its new and old
	// position up by one; the later support variables are unaffected in
	// position because they sit strictly above it.
	cur := t
	newPos := 0
	for m := support; m != 0; m &= m - 1 {
		for p := bits.TrailingZeros(m); p > newPos; p-- {
			cur = cur.SwapAdjacent(p - 1)
		}
		newPos++
	}
	return T{cur.Bits & Mask(k), k}, support
}

// SwapAdjacent returns the table with variables i and i+1 exchanged.
func (t T) SwapAdjacent(i int) T {
	if i < 0 || i+1 >= MaxVars {
		panic("tt: SwapAdjacent out of range")
	}
	lo, hi := varMasks[i], varMasks[i+1]
	keep := t.Bits &^ (lo ^ hi) // minterms where bits i and i+1 agree
	up := t.Bits & lo &^ hi     // x_i=1, x_{i+1}=0: move up
	dn := t.Bits & hi &^ lo     // x_i=0, x_{i+1}=1: move down
	sh := uint(1 << uint(i))    // distance between the two minterm groups
	return T{keep | up<<sh | dn>>sh, t.N}
}

// SwapVars returns the table with variables i and j exchanged.
func (t T) SwapVars(i, j int) T {
	if i == j {
		return t
	}
	if i > j {
		i, j = j, i
	}
	cur := t
	for p := i; p < j; p++ {
		cur = cur.SwapAdjacent(p)
	}
	for p := j - 2; p >= i; p-- {
		cur = cur.SwapAdjacent(p)
	}
	return cur
}

// FlipVar returns g(x) = f(x_0, …, ¬x_i, …).
func (t T) FlipVar(i int) T {
	m := varMasks[i] & Mask(t.N)
	sh := uint(1 << uint(i))
	return T{(t.Bits&m)>>sh | (t.Bits&^m)<<sh&Mask(t.N), t.N}
}

// TranslateVar returns g(x) = f(x with x_i replaced by x_i ⊕ x_j), the
// "translational" affine operation. i and j must differ.
//
// Word-parallel: on the x_j = 1 half of the table the operation is exactly
// FlipVar(i), on the x_j = 0 half it is the identity, and because i ≠ j the
// flip's 2^i-bit shift never crosses an x_j boundary, so the two halves can
// be masked together directly.
func (t T) TranslateVar(i, j int) T {
	if i == j {
		panic("tt: TranslateVar requires distinct variables")
	}
	mj := varMasks[j]
	mi := varMasks[i]
	sh := uint(1) << uint(i)
	flipped := (t.Bits&mi)>>sh | (t.Bits&^mi)<<sh
	return T{(t.Bits&^mj | flipped&mj) & Mask(t.N), t.N}
}

// XorVar returns g(x) = f(x) ⊕ x_i, the "disjoint translational" operation.
func (t T) XorVar(i int) T { return t.Xor(Var(i, t.N)) }

// Permute returns the table of g(x) = f(y) where y_{p[i]} = x_i; that is,
// variable i of the result plays the role of variable p[i] of f. p must be a
// permutation of 0..n-1.
//
// Word-parallel: the permutation is realized as a sequence of at most n−1
// variable swaps (each a chain of word-parallel adjacent swaps) instead of an
// O(2ⁿ·n) per-minterm bit assembly.
func (t T) Permute(p []int) T {
	if len(p) != t.N {
		panic("tt: permutation length mismatch")
	}
	// pos[v] is the index where original variable v currently sits; at[i] is
	// the original variable currently sitting at index i.
	var pos, at [MaxVars]int
	for i := 0; i < t.N; i++ {
		pos[i], at[i] = i, i
	}
	out := t
	for i := 0; i < t.N; i++ {
		want := p[i] // the original variable that must end up at index i
		j := pos[want]
		if j == i {
			continue
		}
		out = out.SwapVars(i, j)
		other := at[i]
		at[i], at[j] = want, other
		pos[want], pos[other] = i, j
	}
	return out
}

// ApplyLinear returns g(x) = f(A·x ⊕ b) where A is given by columns: col[i]
// is the image of basis vector e_i, i.e. (A·x)_k = ⊕_i x_i·col[i]_k.
//
// Invertible maps — the only kind affine classification produces — are
// decomposed by Gaussian elimination into elementary column operations, each
// of which is a word-parallel swap or translation on the table; singular maps
// fall back to the per-minterm reference loop.
func (t T) ApplyLinear(col []uint, b uint) T {
	if len(col) != t.N {
		panic("tt: column count mismatch")
	}
	n := t.N
	var work [MaxVars]uint
	copy(work[:n], col)
	// Reduce A to the identity by right-multiplying elementary matrices:
	// A·F₁·…·F_m = I, so A = F_m·…·F₁ (each F is an involution over F₂) and
	// f∘A applies the recorded operations to f in reverse order.
	type elemOp struct {
		swap bool
		i, j int
	}
	var ops [MaxVars * (MaxVars + 1)]elemOp // ≤ n swaps + n·(n−1) translations
	nops := 0
	for p := 0; p < n; p++ {
		q := p
		for q < n && work[q]>>uint(p)&1 == 0 {
			q++
		}
		if q == n {
			return t.applyLinearGeneric(col, b) // singular map
		}
		if q != p {
			work[p], work[q] = work[q], work[p]
			ops[nops] = elemOp{swap: true, i: p, j: q}
			nops++
		}
		for k := 0; k < n; k++ {
			if k != p && work[k]>>uint(p)&1 == 1 {
				work[k] ^= work[p]
				// Column k ^= column p is right-multiplication by
				// I + e_p·e_kᵀ, i.e. x_p ← x_p ⊕ x_k on arguments.
				ops[nops] = elemOp{i: p, j: k}
				nops++
			}
		}
	}
	// g = (f ∘ ⊕b) ∘ A: translate by b first, then the linear part.
	out := t
	for i := 0; i < n; i++ {
		if b>>uint(i)&1 == 1 {
			out = out.FlipVar(i)
		}
	}
	for k := nops - 1; k >= 0; k-- {
		if ops[k].swap {
			out = out.SwapVars(ops[k].i, ops[k].j)
		} else {
			out = out.TranslateVar(ops[k].i, ops[k].j)
		}
	}
	return out
}

// applyLinearGeneric is the per-minterm reference implementation of
// ApplyLinear, used for singular maps (and by tests as the oracle).
func (t T) applyLinearGeneric(col []uint, b uint) T {
	var out uint64
	size := t.Size()
	for m := 0; m < size; m++ {
		src := b
		for i := 0; i < t.N; i++ {
			if m>>uint(i)&1 == 1 {
				src ^= col[i]
			}
		}
		out |= (t.Bits >> uint(src) & 1) << uint(m)
	}
	return T{out, t.N}
}

// Linear returns the truth table of the (pure) linear function
// x ↦ ⟨mask, x⟩ = ⊕_{i ∈ mask} x_i over n variables.
func Linear(mask uint, n int) T {
	checkN(n)
	out := Const0(n)
	for i := 0; i < n; i++ {
		if mask>>uint(i)&1 == 1 {
			out = out.Xor(Var(i, n))
		}
	}
	return out
}

// IsAffine reports whether t is an affine function, and if so returns the
// linear mask and constant such that t(x) = ⟨mask, x⟩ ⊕ c.
func (t T) IsAffine() (mask uint, c bool, ok bool) {
	c = t.Get(0)
	for i := 0; i < t.N; i++ {
		if t.Get(1<<uint(i)) != c {
			mask |= 1 << uint(i)
		}
	}
	cand := Linear(mask, t.N)
	if c {
		cand = cand.Not()
	}
	return mask, c, cand == t
}

// Extend returns the same function viewed over n ≥ t.N variables; the added
// variables are don't cares.
func (t T) Extend(n int) T {
	checkN(n)
	if n < t.N {
		panic("tt: Extend to fewer variables")
	}
	bitsV := t.Bits
	for i := t.N; i < n; i++ {
		bitsV |= bitsV << (1 << uint(i))
	}
	return T{bitsV & Mask(n), n}
}

// String renders the table as a hexadecimal literal of 2^N bits (at least one
// digit), e.g. the 3-variable majority is "e8".
func (t T) String() string {
	digits := t.Size() / 4
	if digits == 0 {
		digits = 1
	}
	s := strconv.FormatUint(t.Bits, 16)
	if len(s) < digits {
		s = strings.Repeat("0", digits-len(s)) + s
	}
	return s
}

// Parse parses a hexadecimal truth table literal over n variables.
func Parse(s string, n int) (T, error) {
	checkN(n)
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return T{}, fmt.Errorf("tt: parse %q: %v", s, err)
	}
	if v&^Mask(n) != 0 {
		return T{}, fmt.Errorf("tt: literal %q does not fit %d variables", s, n)
	}
	return T{v, n}, nil
}

// Eval evaluates the function on the assignment given by the bits of m.
func (t T) Eval(m uint) bool { return t.Bits>>uint(m)&1 == 1 }

// RemapExpand re-expresses an m-variable table over n ≥ m variables, feeding
// old variable i from new variable pos[i]. The pos entries must be distinct
// and < n.
func (t T) RemapExpand(pos []int, n int) T {
	checkN(n)
	if len(pos) != t.N {
		panic("tt: RemapExpand position count mismatch")
	}
	// Fast path for strictly increasing positions — the only shape cut
	// merging produces (leaf lists are sorted and merged cuts are sorted
	// supersets). Lift the table over n variables and float each variable up
	// to its target with word-parallel adjacent swaps, highest first, so
	// every move crosses only don't-care variables: O(n²) shifts instead of
	// O(2ⁿ·m) per-minterm bit assembly.
	if increasingBelow(pos, n) {
		out := t.Extend(n)
		for i := len(pos) - 1; i >= 0; i-- {
			for p := i; p < pos[i]; p++ {
				out = out.SwapAdjacent(p)
			}
		}
		return out
	}
	var out uint64
	size := 1 << uint(n)
	for m := 0; m < size; m++ {
		src := 0
		for i, p := range pos {
			src |= m >> uint(p) & 1 << uint(i)
		}
		out |= t.Bits >> uint(src) & 1 << uint(m)
	}
	return T{out, n}
}

// increasingBelow reports whether pos is strictly increasing with all
// entries in [0, n) — the precondition of RemapExpand's swap-chain path.
func increasingBelow(pos []int, n int) bool {
	prev := -1
	for _, p := range pos {
		if p <= prev || p >= n {
			return false
		}
		prev = p
	}
	return true
}

// ANF returns the algebraic normal form of t as a bit vector: bit m is set
// iff the monomial ∏_{i ∈ m} x_i appears in the polynomial (Möbius
// transform).
func (t T) ANF() uint64 {
	a := t.Bits
	for i := 0; i < t.N; i++ {
		a ^= (a &^ varMasks[i]) << (1 << uint(i))
	}
	return a & Mask(t.N)
}

// Degree returns the algebraic degree of t: the largest number of variables
// in any monomial of its ANF. The constant-zero function has degree 0.
func (t T) Degree() int {
	a := t.ANF()
	deg := 0
	for m := 0; a != 0; a >>= 1 {
		if a&1 == 1 && bits.OnesCount(uint(m)) > deg {
			deg = bits.OnesCount(uint(m))
		}
		m++
	}
	return deg
}
