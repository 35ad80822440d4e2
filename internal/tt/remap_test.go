package tt

import (
	"math/rand"
	"testing"
)

// remapExpandRef is the original per-minterm implementation of RemapExpand,
// kept as the oracle for the word-parallel swap-chain fast path.
func remapExpandRef(t T, pos []int, n int) T {
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

// increasingPositions enumerates all strictly increasing k-subsets of 0..n-1.
func increasingPositions(k, n int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for p := start; p < n; p++ {
			rec(p+1, append(cur, p))
		}
	}
	rec(0, nil)
	return out
}

func TestRemapExpandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= MaxVars; n++ {
		for k := 0; k <= n; k++ {
			for _, pos := range increasingPositions(k, n) {
				for trial := 0; trial < 8; trial++ {
					tab := New(rng.Uint64(), k)
					got := tab.RemapExpand(pos, n)
					want := remapExpandRef(tab, pos, n)
					if got != want {
						t.Fatalf("RemapExpand(%v, pos=%v, n=%d) = %v, want %v",
							tab, pos, n, got, want)
					}
				}
			}
		}
	}
}

// Non-increasing positions must keep working through the generic path.
func TestRemapExpandPermutedPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(MaxVars-1)
		k := 1 + rng.Intn(n)
		perm := rng.Perm(n)[:k]
		tab := New(rng.Uint64(), k)
		got := tab.RemapExpand(perm, n)
		want := remapExpandRef(tab, perm, n)
		if got != want {
			t.Fatalf("RemapExpand(%v, pos=%v, n=%d) = %v, want %v", tab, perm, n, got, want)
		}
	}
}

func TestRemapExpandAllocs(t *testing.T) {
	tab := New(0xe8, 3)
	pos := []int{1, 3, 5}
	allocs := testing.AllocsPerRun(100, func() {
		_ = tab.RemapExpand(pos, 6)
	})
	if allocs != 0 {
		t.Fatalf("RemapExpand allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkRemapExpandIncreasing(b *testing.B) {
	tab := New(0x6996, 4)
	pos := []int{0, 2, 3, 5}
	for i := 0; i < b.N; i++ {
		_ = tab.RemapExpand(pos, 6)
	}
}

func TestApplyLinearMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= MaxVars; n++ {
		for trial := 0; trial < 300; trial++ {
			f := T{rng.Uint64() & Mask(n), n}
			col := make([]uint, n)
			for i := range col {
				col[i] = uint(rng.Intn(1 << uint(n))) // singular maps included
			}
			b := uint(rng.Intn(1 << uint(n)))
			if got, want := f.ApplyLinear(col, b), f.applyLinearGeneric(col, b); got != want {
				t.Fatalf("n=%d f=%#x col=%v b=%#x: ApplyLinear %#x, generic %#x",
					n, f.Bits, col, b, got.Bits, want.Bits)
			}
		}
	}
}

func TestPermuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= MaxVars; n++ {
		for trial := 0; trial < 200; trial++ {
			f := T{rng.Uint64() & Mask(n), n}
			p := rng.Perm(n)
			want := Const0(n)
			for m := 0; m < f.Size(); m++ {
				var src uint
				for i := 0; i < n; i++ {
					if m>>uint(i)&1 == 1 {
						src |= 1 << uint(p[i])
					}
				}
				if f.Eval(src) {
					want.Bits |= 1 << uint(m)
				}
			}
			if got := f.Permute(p); got != want {
				t.Fatalf("n=%d f=%#x p=%v: Permute %#x, reference %#x",
					n, f.Bits, p, got.Bits, want.Bits)
			}
		}
	}
}
