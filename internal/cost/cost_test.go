package cost

import (
	"testing"

	"repro/internal/xag"
)

func TestFromName(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "mc"}, {"mc", "mc"}, {"size", "size"}, {"depth", "depth"},
	} {
		m, err := FromName(tc.in)
		if err != nil {
			t.Fatalf("FromName(%q): %v", tc.in, err)
		}
		if m.Name() != tc.want {
			t.Fatalf("FromName(%q).Name() = %q, want %q", tc.in, m.Name(), tc.want)
		}
	}
	if _, err := FromName("latency"); err == nil {
		t.Fatal("FromName accepted an unknown model")
	}
}

// TestMCGainMatchesLegacySemantics pins the MC model to the exact gain and
// tiebreak formula of the pre-refactor engine — the Bristol determinism
// tests depend on it.
func TestMCGainMatchesLegacySemantics(t *testing.T) {
	m := MC()
	g, tie := m.Gain(Costs{Ands: 5, Xors: 3}, Costs{Ands: 2, Xors: 7})
	if g != 3 || tie != 4 {
		t.Fatalf("MC gain = (%d, %d), want (3, 4)", g, tie)
	}
	// Constant substitution: new cone is empty.
	g, tie = m.Gain(Costs{Ands: 4, Xors: 2}, Costs{})
	if g != 4 || tie != -2 {
		t.Fatalf("MC constant gain = (%d, %d), want (4, -2)", g, tie)
	}
	if m.NeedsDepth() {
		t.Fatal("MC model must not require depth tracking")
	}
}

func TestSizeGain(t *testing.T) {
	m := Size()
	g, _ := m.Gain(Costs{Ands: 2, Xors: 5}, Costs{Ands: 3, Xors: 1})
	if g != 3 {
		t.Fatalf("size gain = %d, want 3", g)
	}
	if !m.Improved(xag.Counts{And: 3, Xor: 3}, xag.Counts{And: 4, Xor: 1}) {
		t.Fatal("size improvement is AND+XOR")
	}
}

func TestDepthGainLexicographic(t *testing.T) {
	m := Depth()
	// A depth reduction outranks any AND increase the clamp allows.
	deep, _ := m.Gain(Costs{Ands: 1, Xors: 0, Depth: 5}, Costs{Ands: 120, Xors: 0, Depth: 4})
	if deep <= 0 {
		t.Fatalf("depth reduction rejected: gain %d", deep)
	}
	flatter, _ := m.Gain(Costs{Ands: 10, Depth: 5}, Costs{Ands: 1, Depth: 5})
	if flatter <= 0 {
		t.Fatalf("depth-neutral AND reduction rejected: gain %d", flatter)
	}
	if flatter >= deep {
		t.Fatalf("AND tiebreak (%d) outranked depth gain (%d)", flatter, deep)
	}
	// Depth increase is never profitable, whatever the AND gain.
	worse, _ := m.Gain(Costs{Ands: 200, Depth: 3}, Costs{Ands: 1, Depth: 4})
	if worse >= 0 {
		t.Fatalf("depth increase scored gain %d", worse)
	}
	if !m.NeedsDepth() {
		t.Fatal("depth model requires depth tracking")
	}
}

func TestDepthImprovedAndTiebreak(t *testing.T) {
	m := Depth()
	if !m.Improved(xag.Counts{And: 10, AndDepth: 5}, xag.Counts{And: 12, AndDepth: 4}) {
		t.Fatal("depth decrease must count as improvement")
	}
	if !m.Improved(xag.Counts{And: 10, AndDepth: 5}, xag.Counts{And: 9, AndDepth: 5}) {
		t.Fatal("AND decrease at equal depth must count as improvement")
	}
	if m.Improved(xag.Counts{And: 10, AndDepth: 5}, xag.Counts{And: 2, AndDepth: 6}) {
		t.Fatal("deeper network is never an improvement")
	}
}

func TestBetterEntrySelection(t *testing.T) {
	shallow := Impl{Ands: 4, Xors: 6, Depth: 2}
	small := Impl{Ands: 3, Xors: 2, Depth: 3}
	if !Depth().Better(shallow, small) {
		t.Fatal("depth model must prefer the shallower implementation")
	}
	if !MC().Better(small, shallow) {
		t.Fatal("MC model must prefer the smaller implementation")
	}
}

func TestCutRank(t *testing.T) {
	if r := MC().CutRank([]int{9, 1}); r != 0 {
		t.Fatalf("MC cut rank = %d, want 0 (keep default order)", r)
	}
	if r := Depth().CutRank([]int{2, 7, 3}); r != 7 {
		t.Fatalf("depth cut rank = %d, want max leaf depth 7", r)
	}
}
