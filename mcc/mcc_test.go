package mcc_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/mcc"
)

// fullAdder builds the paper's Fig. 1 full adder: 3 ANDs naively, 1 AND
// after optimization (cout is majority, an affine relative of AND).
func fullAdder() *mcc.Network {
	n := mcc.NewNetwork()
	a, b, cin := n.AddPI("a"), n.AddPI("b"), n.AddPI("cin")
	ab := n.Xor(a, b)
	n.AddPO(n.Xor(ab, cin), "sum")
	n.AddPO(n.Or(n.And(a, b), n.And(cin, ab)), "cout")
	return n
}

func TestOptimizeFullAdder(t *testing.T) {
	res := mcc.Optimize(context.Background(), fullAdder())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Converged {
		t.Fatalf("did not converge")
	}
	if got := res.Final().And; got != 1 {
		t.Fatalf("full adder optimized to %d ANDs, want 1", got)
	}
}

func TestOptionsApply(t *testing.T) {
	var lines int
	res := mcc.Optimize(context.Background(), fullAdder(),
		mcc.WithWorkers(4),
		mcc.WithVerify(true),
		mcc.WithMaxRounds(1),
		mcc.WithCost(mcc.Size()),
		mcc.WithLogger(func(string, ...any) { lines++ }),
	)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("WithMaxRounds(1) ran %d rounds", len(res.Rounds))
	}
	_ = lines // the logger only fires on degradation; none expected here
}

func TestOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := mcc.Optimize(ctx, fullAdder())
	if !res.Interrupted || res.Err == nil {
		t.Fatalf("canceled run: Interrupted=%v Err=%v", res.Interrupted, res.Err)
	}
	if res.Network == nil {
		t.Fatalf("canceled run returned no network")
	}
}

func TestWithDBReusesCache(t *testing.T) {
	first := mcc.Optimize(context.Background(), fullAdder())
	if first.DB == nil {
		t.Fatalf("no database on result")
	}
	classified := first.DB.Stats().Classified
	second := mcc.Optimize(context.Background(), fullAdder(), mcc.WithDB(first.DB))
	if second.DB != first.DB {
		t.Fatalf("WithDB ignored")
	}
	if got := first.DB.Stats().Classified; got != classified {
		t.Fatalf("warm database re-classified %d functions", got-classified)
	}
}

func TestBristolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	res := mcc.Optimize(context.Background(), fullAdder())
	if err := res.Network.WriteBristol(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := mcc.ReadBristol(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.CountGates().And; got != 1 {
		t.Fatalf("round-tripped network has %d ANDs, want 1", got)
	}
}

// TestDepthModelOnAdder64 is the ISSUE acceptance criterion at the public
// surface: optimizing a 64-bit adder under the Depth model strictly reduces
// the multiplicative depth, does not grow the AND count by more than 10%,
// and passes the end-of-round miter (WithVerify) throughout.
func TestDepthModelOnAdder64(t *testing.T) {
	n := bench.Adder(64)
	before := n.CountGates()
	res := mcc.Optimize(context.Background(), n,
		mcc.WithCost(mcc.Depth()),
		mcc.WithVerify(true),
	)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	after := res.Final()
	if after.AndDepth >= before.AndDepth {
		t.Fatalf("AND depth not reduced: %d -> %d", before.AndDepth, after.AndDepth)
	}
	if limit := before.And + before.And/10; after.And > limit {
		t.Fatalf("AND count grew past 10%%: %d -> %d", before.And, after.And)
	}
	t.Logf("adder-64 depth run: ANDs %d -> %d, AND depth %d -> %d",
		before.And, after.And, before.AndDepth, after.AndDepth)
}

// TestCostConstructors: the three built-in models are selectable by name.
func TestCostConstructors(t *testing.T) {
	if mcc.MC().Name() != "mc" || mcc.Size().Name() != "size" || mcc.Depth().Name() != "depth" {
		t.Fatalf("model names: %s/%s/%s", mcc.MC().Name(), mcc.Size().Name(), mcc.Depth().Name())
	}
	res := mcc.Optimize(context.Background(), fullAdder(), mcc.WithCost(mcc.Depth()))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Final().AndDepth; got > 2 {
		t.Fatalf("full adder AND depth %d after depth run", got)
	}
}

func TestWorkersAreDeterministic(t *testing.T) {
	seq := mcc.Optimize(context.Background(), fullAdder(), mcc.WithWorkers(1))
	par := mcc.Optimize(context.Background(), fullAdder(), mcc.WithWorkers(8))
	var a, b bytes.Buffer
	if err := seq.Network.WriteBristol(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.Network.WriteBristol(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("parallel result differs from sequential")
	}
}

// TestWithIncrementalIdentical: WithIncremental is a deprecated no-op.
// With either value the run commits the default run's bytes, and its later
// rounds still reuse enumeration work.
func TestWithIncrementalIdentical(t *testing.T) {
	build := func() *mcc.Network { return bench.Adder(32) }
	serialize := func(res mcc.Result) []byte {
		var buf bytes.Buffer
		if err := res.Network.WriteBristol(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	def := mcc.Optimize(context.Background(), build())
	if def.Err != nil {
		t.Fatal(def.Err)
	}
	for _, on := range []bool{true, false} {
		res := mcc.Optimize(context.Background(), build(), mcc.WithIncremental(on))
		if res.Err != nil {
			t.Fatalf("WithIncremental(%v): %v", on, res.Err)
		}
		if !bytes.Equal(serialize(res), serialize(def)) {
			t.Fatalf("WithIncremental(%v) changed the optimized circuit", on)
		}
		reused := false
		for i, r := range res.Rounds {
			if i > 0 && r.Enumerated < r.Gates {
				reused = true
			}
		}
		if !reused {
			t.Fatalf("WithIncremental(%v): later rounds never reused enumeration work", on)
		}
	}
}
