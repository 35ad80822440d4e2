package mcdb

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/tt"
	"repro/internal/xag"
)

// materializedAndDepth builds the entry in a fresh network over PIs held at
// known depths (simulated by chains of AND gates) and recounts — the
// structural reference Entry.AndDepth and RealizedAndDepth must bound.
func entryDepthByMaterialize(t *testing.T, e *Entry) int {
	t.Helper()
	net := xag.New()
	inputs := make([]xag.Lit, e.N)
	for i := range inputs {
		inputs[i] = net.AddPI("")
	}
	out := e.Materialize(net, inputs)
	net.AddPO(out, "f")
	return net.AndDepth(out.Node())
}

func TestEntryAndDepth(t *testing.T) {
	db := New(Options{})
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 60; i++ {
		f := tt.New(rng.Uint64(), 1+rng.Intn(5))
		e := db.EntryFor(f)
		got := e.AndDepth()
		// Materialization may come out shallower than the mask-level count
		// when strashing merges gates, never deeper.
		if built := entryDepthByMaterialize(t, e); built > got {
			t.Fatalf("%s: AndDepth()=%d but materialized depth %d", f, got, built)
		}
		if got > e.MC() {
			t.Fatalf("%s: AndDepth %d exceeds MC %d", f, got, e.MC())
		}
		if got == 0 && e.MC() != 0 {
			t.Fatalf("%s: zero depth with %d AND steps", f, e.MC())
		}
	}
}

func TestRealizedAndDepthBoundsConstruction(t *testing.T) {
	db := New(Options{})
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(4)
		f := tt.New(rng.Uint64(), n)
		if _, _, ok := f.IsAffine(); ok {
			continue
		}
		e, res := db.Lookup(f)

		// Leaves at random depths, built as AND chains off real PIs.
		net := xag.New()
		leaves := make([]xag.Lit, n)
		leafDepths := make([]int, n)
		for j := range leaves {
			l := net.AddPI("")
			d := rng.Intn(4)
			for k := 0; k < d; k++ {
				l = net.And(l, net.AddPI(""))
			}
			leaves[j] = l
			leafDepths[j] = net.AndDepth(l.Node())
			if leafDepths[j] != d {
				t.Fatalf("leaf chain depth %d, want %d", leafDepths[j], d)
			}
		}
		predicted := RealizedAndDepth(e, res.Tr, leafDepths)
		out := Realize(net, e, res.Tr, leaves)
		net.AddPO(out, "f")
		if actual := net.AndDepth(out.Node()); actual > predicted {
			t.Fatalf("%s: realized depth %d exceeds prediction %d", f, actual, predicted)
		}
	}
}

func TestRealizedAndDepthIdentityTransform(t *testing.T) {
	db := New(Options{})
	e := db.EntryFor(tt.New(0x80, 3)) // x0 ∧ x1 ∧ x2
	tr := identityTransform(3)
	if d := RealizedAndDepth(e, tr, []int{0, 0, 0}); d != e.AndDepth() {
		t.Fatalf("identity transform at depth zero: %d != AndDepth %d", d, e.AndDepth())
	}
	// The deepest leaf feeds through at least one AND step.
	if d := RealizedAndDepth(e, tr, []int{5, 0, 0}); d < 6 {
		t.Fatalf("deep leaf ignored: realized depth %d", d)
	}
}

func TestParetoFrontAndEntryForModel(t *testing.T) {
	// f = x0∧x1∧x2∧x3 over 4 vars: minterm 15 of 16.
	f := tt.New(1<<15, 4)
	db := New(Options{})
	head := db.EntryFor(f)
	if head.MC() != 3 {
		t.Fatalf("AND-4 synthesized with MC %d, want 3", head.MC())
	}

	// A serial depth-3 circuit: a0 = x0∧x1, a1 = a0∧x2, a2 = a1∧x3.
	serial := &Entry{
		N: 4, F: f,
		Steps: []Step{
			{L: 1 << 1, M: 1 << 2},
			{L: 1 << 5, M: 1 << 3},
			{L: 1 << 6, M: 1 << 4},
		},
		Out: 1 << 7,
	}
	if err := serial.Verify(); err != nil {
		t.Fatal(err)
	}
	// A balanced depth-2 circuit: a0 = x0∧x1, a1 = x2∧x3, a2 = a0∧a1.
	balanced := &Entry{
		N: 4, F: f,
		Steps: []Step{
			{L: 1 << 1, M: 1 << 2},
			{L: 1 << 3, M: 1 << 4},
			{L: 1 << 5, M: 1 << 6},
		},
		Out: 1 << 7,
	}
	if err := balanced.Verify(); err != nil {
		t.Fatal(err)
	}

	// Offer an alternate to the front the way the database admits a
	// verified circuit: under db.mu, after the head is materialized.
	addAlternate := func(e *Entry) bool {
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.addEntryLocked(e)
	}
	headDepth := head.AndDepth()
	switch headDepth {
	case 2:
		// Head is already balanced: the serial alternate is dominated.
		if addAlternate(serial) {
			t.Fatal("dominated serial alternate accepted")
		}
	case 3:
		// Head is serial: the balanced alternate must join the front and win
		// depth-model selection while MC selection keeps the head.
		if !addAlternate(balanced) {
			t.Fatal("balanced alternate rejected")
		}
	default:
		t.Fatalf("AND-4 head has depth %d, want 2 or 3", headDepth)
	}

	// Whatever the synthesis produced, after the exchange above the front
	// must answer: MC model → MC 3, depth model → depth 2 with MC 3.
	eMC := db.EntryForModel(f, cost.MC())
	if eMC.MC() != 3 {
		t.Fatalf("MC-model selection returned MC %d", eMC.MC())
	}
	eD := db.EntryForModel(f, cost.Depth())
	if eD.AndDepth() != 2 || eD.MC() != 3 {
		t.Fatalf("depth-model selection returned (MC %d, depth %d), want (3, 2)",
			eD.MC(), eD.AndDepth())
	}
	// Lookup (MC default) agrees with EntryForModel(MC).
	eDefault, _ := db.Lookup(f)
	if eDefault.MC() != eMC.MC() || eDefault.AndDepth() != eMC.AndDepth() {
		t.Fatalf("Lookup disagrees with EntryForModel(MC)")
	}

	// The front survives persistence: both circuits round-trip.
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	if _, err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	eD2 := fresh.EntryForModel(f, cost.Depth())
	if eD2.AndDepth() != eD.AndDepth() || eD2.MC() != eD.MC() {
		t.Fatalf("depth selection changed across save/load: (%d,%d) -> (%d,%d)",
			eD.MC(), eD.AndDepth(), eD2.MC(), eD2.AndDepth())
	}
}

func TestLoadRejectsWrongDeclaredDepth(t *testing.T) {
	and2 := persistedEntry{
		N: 2, FBits: 0x8, Steps: []Step{{L: 1 << 1, M: 1 << 2}}, Out: 1 << 3,
		AndDepth: 3, // the circuit's depth is 1
	}
	fresh := New(Options{})
	if n, err := fresh.Load(bytes.NewReader(saveEntries(t, and2))); err == nil {
		t.Fatalf("mismatched declared AND depth accepted (%d entries)", n)
	}
	// Zero means unset (version-1 files) and is always accepted.
	and2.AndDepth = 0
	if n, err := fresh.Load(bytes.NewReader(saveEntries(t, and2))); err != nil || n != 1 {
		t.Fatalf("unset AND depth rejected: n=%d err=%v", n, err)
	}
}
