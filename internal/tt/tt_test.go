package tt

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// eval recomputes t on minterm m bit by bit from an explicit evaluation of
// the expression the table is supposed to represent.
func evalMaj3(m int) bool {
	a, b, c := m&1 == 1, m>>1&1 == 1, m>>2&1 == 1
	cnt := 0
	for _, v := range []bool{a, b, c} {
		if v {
			cnt++
		}
	}
	return cnt >= 2
}

func TestVarProjections(t *testing.T) {
	for n := 1; n <= MaxVars; n++ {
		for i := 0; i < n; i++ {
			v := Var(i, n)
			for m := 0; m < 1<<uint(n); m++ {
				want := m>>uint(i)&1 == 1
				if v.Get(m) != want {
					t.Fatalf("Var(%d,%d).Get(%d) = %v, want %v", i, n, m, v.Get(m), want)
				}
			}
		}
	}
}

func TestMajorityTable(t *testing.T) {
	a, b, c := Var(0, 3), Var(1, 3), Var(2, 3)
	maj := a.And(b).Or(a.And(c)).Or(b.And(c))
	if maj.String() != "e8" {
		t.Fatalf("maj3 = %s, want e8", maj)
	}
	for m := 0; m < 8; m++ {
		if maj.Get(m) != evalMaj3(m) {
			t.Fatalf("maj3(%d) mismatch", m)
		}
	}
	// The XOR form x1x2 ⊕ x1x3 ⊕ x2x3 must agree.
	alt := a.And(b).Xor(a.And(c)).Xor(b.And(c))
	if alt != maj {
		t.Fatalf("xor form %s != or form %s", alt, maj)
	}
}

func TestConstAndNot(t *testing.T) {
	for n := 0; n <= MaxVars; n++ {
		if Const0(n).Not() != Const1(n) {
			t.Fatalf("n=%d: ¬0 != 1", n)
		}
		if !Const0(n).IsConst0() || !Const1(n).IsConst1() {
			t.Fatalf("n=%d: const predicates wrong", n)
		}
		if ones := bits.OnesCount64(Const1(n).Bits); ones != 1<<uint(n) {
			t.Fatalf("n=%d: constant true has %d minterms", n, ones)
		}
	}
}

func TestCofactorShannon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= MaxVars; n++ {
		for trial := 0; trial < 50; trial++ {
			f := New(rng.Uint64(), n)
			for i := 0; i < n; i++ {
				f0, f1 := f.Cofactor(i, false), f.Cofactor(i, true)
				if f0.DependsOn(i) || f1.DependsOn(i) {
					t.Fatalf("cofactor still depends on var %d", i)
				}
				xi := Var(i, n)
				re := xi.Not().And(f0).Or(xi.And(f1))
				if re != f {
					t.Fatalf("Shannon expansion failed: n=%d i=%d f=%s", n, i, f)
				}
			}
		}
	}
}

func TestDependsOnAndSupport(t *testing.T) {
	f := Var(0, 4).And(Var(2, 4)) // depends on x0, x2 only
	if got := f.SupportMask(); got != 0b0101 {
		t.Fatalf("support mask = %04b, want 0101", got)
	}
}

func TestShrink(t *testing.T) {
	// x1 ∧ x3 over 5 variables shrinks to x0 ∧ x1 over 2 variables.
	f := Var(1, 5).And(Var(3, 5))
	g, support := f.Shrink()
	if g.N != 2 {
		t.Fatalf("shrunk N = %d, want 2", g.N)
	}
	if support != 0b01010 {
		t.Fatalf("support = %05b, want 01010", support)
	}
	if g != Var(0, 2).And(Var(1, 2)) {
		t.Fatalf("shrunk table = %s, want 8", g)
	}
	// Shrinking must preserve values under the variable mapping: shrunk
	// variable j is the j-th set bit of the support mask.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(MaxVars)
		f := New(rng.Uint64(), n)
		g, support := f.Shrink()
		if support != f.SupportMask() || g.N != bits.OnesCount(support) {
			t.Fatalf("f=%s: support %b, N %d; want %b and its popcount", f, support, g.N, f.SupportMask())
		}
		for m := 0; m < f.Size(); m++ {
			var gm uint
			newI := 0
			for s := support; s != 0; s &= s - 1 {
				gm |= uint(m) >> uint(bits.TrailingZeros(s)) & 1 << uint(newI)
				newI++
			}
			if g.Eval(gm) != f.Get(m) {
				t.Fatalf("shrink mismatch: f=%s n=%d m=%d support=%b", f, n, m, support)
			}
		}
	}
}

// TestShrinkAllocFree pins that Shrink allocates nothing: the rewriting
// engine shrinks every cut function of every round.
func TestShrinkAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := make([]T, 64)
	for i := range fs {
		n := rng.Intn(MaxVars + 1)
		f := New(rng.Uint64(), n)
		// Cofactor some variables away so most tables need compacting.
		for k := 0; n > 0 && k < 2; k++ {
			f = f.Cofactor(rng.Intn(n), rng.Intn(2) == 1)
		}
		fs[i] = f
	}
	var sink uint
	avg := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			_, s := f.Shrink()
			sink += s
		}
	})
	if avg != 0 {
		t.Fatalf("Shrink allocates %.1f times per %d tables, want 0", avg, len(fs))
	}
	_ = sink
}

func TestSwapVars(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(MaxVars-1)
		f := New(rng.Uint64(), n)
		i, j := rng.Intn(n), rng.Intn(n)
		g := f.SwapVars(i, j)
		for m := 0; m < f.Size(); m++ {
			bi, bj := m>>uint(i)&1, m>>uint(j)&1
			src := m &^ (1<<uint(i) | 1<<uint(j))
			src |= bi<<uint(j) | bj<<uint(i)
			if g.Get(m) != f.Get(src) {
				t.Fatalf("swap(%d,%d) wrong at m=%d (n=%d, f=%s)", i, j, m, n, f)
			}
		}
		if g.SwapVars(i, j) != f {
			t.Fatalf("swap not involutive")
		}
	}
}

func TestFlipVar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(MaxVars)
		f := New(rng.Uint64(), n)
		i := rng.Intn(n)
		g := f.FlipVar(i)
		for m := 0; m < f.Size(); m++ {
			if g.Get(m) != f.Get(m^1<<uint(i)) {
				t.Fatalf("flip(%d) wrong at m=%d", i, m)
			}
		}
		if g.FlipVar(i) != f {
			t.Fatalf("flip not involutive")
		}
	}
}

func TestTranslateVar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(MaxVars-1)
		f := New(rng.Uint64(), n)
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		g := f.TranslateVar(i, j)
		for m := 0; m < f.Size(); m++ {
			// g(x) = f(x with x_i := x_i ⊕ x_j)
			src := m ^ (m >> uint(j) & 1 << uint(i))
			if g.Get(m) != f.Get(src) {
				t.Fatalf("translate(%d,%d) wrong at m=%d", i, j, m)
			}
		}
		if g.TranslateVar(i, j) != f {
			t.Fatalf("translate not involutive")
		}
	}
}

func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(MaxVars)
		f := New(rng.Uint64(), n)
		p := rng.Perm(n)
		g := f.Permute(p)
		for m := 0; m < f.Size(); m++ {
			src := 0
			for i := 0; i < n; i++ {
				src |= m >> uint(i) & 1 << uint(p[i])
			}
			if g.Get(m) != f.Get(src) {
				t.Fatalf("permute %v wrong at m=%d", p, m)
			}
		}
	}
}

func TestApplyLinearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 1; n <= MaxVars; n++ {
		f := New(rng.Uint64(), n)
		col := make([]uint, n)
		for i := range col {
			col[i] = 1 << uint(i)
		}
		if f.ApplyLinear(col, 0) != f {
			t.Fatalf("identity ApplyLinear changed table")
		}
		// b offset is an XOR of input complements.
		g := f.ApplyLinear(col, 1)
		if g != f.FlipVar(0) {
			t.Fatalf("offset ApplyLinear != FlipVar")
		}
	}
}

func TestApplyLinearMatchesElementary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(MaxVars-1)
		f := New(rng.Uint64(), n)
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		// The transvection x_i ← x_i ⊕ x_j corresponds to A with
		// col[j] = e_j ⊕ e_i (f reads input i as x_i ⊕ x_j: the source
		// index is m ^ (m_j << i), i.e. flipping input j also feeds i).
		col := make([]uint, n)
		for k := range col {
			col[k] = 1 << uint(k)
		}
		col[j] ^= 1 << uint(i)
		if f.ApplyLinear(col, 0) != f.TranslateVar(i, j) {
			t.Fatalf("ApplyLinear transvection != TranslateVar(%d,%d)", i, j)
		}
	}
}

func TestLinearAndIsAffine(t *testing.T) {
	for n := 0; n <= 4; n++ {
		for mask := uint(0); mask < 1<<uint(n); mask++ {
			for c := 0; c < 2; c++ {
				f := Linear(mask, n)
				if c == 1 {
					f = f.Not()
				}
				gm, gc, ok := f.IsAffine()
				if !ok || gm != mask || gc != (c == 1) {
					t.Fatalf("IsAffine(%s) = (%b,%v,%v), want (%b,%v,true)", f, gm, gc, ok, mask, c == 1)
				}
			}
		}
	}
	if _, _, ok := New(0xe8, 3).IsAffine(); ok {
		t.Fatalf("maj3 reported affine")
	}
	if _, _, ok := New(0x88, 3).IsAffine(); ok {
		t.Fatalf("and2 reported affine")
	}
}

func TestExtend(t *testing.T) {
	f := New(0x8, 2) // AND
	g := f.Extend(4)
	for m := 0; m < 16; m++ {
		if g.Get(m) != f.Get(m&3) {
			t.Fatalf("extend wrong at %d", m)
		}
	}
	if g.SupportMask() != 0b0011 {
		t.Fatalf("extend support mask %04b", g.SupportMask())
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(MaxVars + 1)
		f := New(rng.Uint64(), n)
		g, err := Parse(f.String(), n)
		if err != nil {
			t.Fatalf("parse(%q): %v", f.String(), err)
		}
		if g != f {
			t.Fatalf("round trip %s -> %s", f, g)
		}
	}
	if _, err := Parse("1ff", 3); err == nil {
		t.Fatalf("expected overflow error")
	}
	if _, err := Parse("zz", 3); err == nil {
		t.Fatalf("expected syntax error")
	}
}

func TestQuickXorProperties(t *testing.T) {
	// ⊕ is associative/commutative with identity 0 and self-inverse.
	f := func(a, b, c uint64) bool {
		x, y, z := New(a, 6), New(b, 6), New(c, 6)
		return x.Xor(y).Xor(z) == x.Xor(y.Xor(z)) &&
			x.Xor(y) == y.Xor(x) &&
			x.Xor(Const0(6)) == x &&
			x.Xor(x) == Const0(6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a, 6), New(b, 6)
		return x.And(y).Not() == x.Not().Or(y.Not()) &&
			x.Or(y).Not() == x.Not().And(y.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndXorDistribution(t *testing.T) {
	// x ∧ (y ⊕ z) = (x∧y) ⊕ (x∧z): the GF(2) distributive law the whole
	// paper rests on.
	f := func(a, b, c uint64) bool {
		x, y, z := New(a, 6), New(b, 6), New(c, 6)
		return x.And(y.Xor(z)) == x.And(y).Xor(x.And(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestANFAndDegree(t *testing.T) {
	cases := []struct {
		f   T
		deg int
	}{
		{Const0(4), 0},
		{Const1(4), 0},
		{Var(2, 4), 1},
		{Linear(0b1111, 4), 1},
		{Var(0, 4).And(Var(1, 4)), 2},
		{New(0xe8, 3), 2},   // majority: x1x2⊕x1x3⊕x2x3
		{New(0x80, 3), 3},   // x0x1x2
		{New(0x8000, 4), 4}, // x0x1x2x3
		{Var(0, 4).And(Var(1, 4)).Xor(Var(2, 4).And(Var(3, 4))), 2},
	}
	for _, c := range cases {
		if got := c.f.Degree(); got != c.deg {
			t.Fatalf("Degree(%s) = %d, want %d", c.f, got, c.deg)
		}
	}
	// ANF of majority: monomials 011, 101, 110.
	if got := New(0xe8, 3).ANF(); got != 1<<3|1<<5|1<<6 {
		t.Fatalf("ANF(maj3) = %b", got)
	}
	// Round trip: rebuild the function from its ANF monomials.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(MaxVars)
		f := New(rng.Uint64(), n)
		a := f.ANF()
		re := Const0(n)
		for m := 0; m < f.Size(); m++ {
			if a>>uint(m)&1 == 0 {
				continue
			}
			term := Const1(n)
			for i := 0; i < n; i++ {
				if m>>uint(i)&1 == 1 {
					term = term.And(Var(i, n))
				}
			}
			re = re.Xor(term)
		}
		if re != f {
			t.Fatalf("ANF round trip failed for %s (n=%d)", f, n)
		}
	}
}
