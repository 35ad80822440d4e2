package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/mcdb"
	"repro/internal/tt"
)

// These tests drive the fault-injection points of the pipeline and assert
// the tentpole guarantee: a corrupted database entry, a flipped truth-table
// bit, or a panicking node either gets rejected or yields a structured
// error — never a functionally wrong network.

func TestCorruptedDBEntryIsRejected(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	// Complement the output mask of every entry the first time it passes
	// through Lookup: the realized circuit then computes the complement of
	// the cut function, which the per-replacement check must catch.
	corrupted := make(map[*mcdb.Entry]bool)
	faultinject.Set(faultinject.PointDBEntry, func(p any) {
		e := p.(*mcdb.Entry)
		if !corrupted[e] {
			corrupted[e] = true
			e.Out ^= 1
		}
	})

	n := rippleAdder(8)
	res := MinimizeMC(n, Options{})
	if faultinject.Fired(faultinject.PointDBEntry) == 0 {
		t.Fatal("injection point never fired")
	}
	if res.Degraded.RejectedRewrites == 0 {
		t.Fatal("no rewrite was rejected despite corrupted entries")
	}
	equalOnRandom(t, n, res.Network, 4, 101)
}

func TestFlippedCutFunctionRollsBackRound(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	// Complement every cut function after it is computed. The complement has
	// the same multiplicative complexity, so the optimizer applies exactly
	// the rewrites it would normally apply — each internally consistent with
	// the corrupted table and therefore invisible to the per-replacement
	// check. Only the end-of-round miter can catch this class of fault.
	faultinject.Set(faultinject.PointCutFunction, func(p any) {
		f := p.(*tt.T)
		*f = f.Not()
	})

	n := rippleAdder(8)
	res := MinimizeMC(n, Options{Verify: true})
	var verr *VerifyError
	if !errors.As(res.Err, &verr) {
		t.Fatalf("want *VerifyError, got %v", res.Err)
	}
	if verr.Round != 1 {
		t.Fatalf("want round 1 rolled back, got %d", verr.Round)
	}
	if res.Degraded.RolledBackRounds != 1 {
		t.Fatalf("RolledBackRounds = %d, want 1", res.Degraded.RolledBackRounds)
	}
	// The rolled-back result is the (valid) input, not the corrupted round.
	if got, want := res.Network.CountGates(), n.CountGates(); got != want {
		t.Fatalf("rollback did not restore the input: %+v != %+v", got, want)
	}
	equalOnRandom(t, n, res.Network, 4, 102)
}

func TestInjectedPanicIsRecovered(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	faultinject.Set(faultinject.PointNode, faultinject.PanicHook("injected"))

	n := rippleAdder(8)
	res := MinimizeMC(n, Options{Verify: true})
	if res.Degraded.RecoveredPanics == 0 {
		t.Fatal("no panic was recovered")
	}
	if res.Err != nil {
		t.Fatalf("recovered panics must not fail the run: %v", res.Err)
	}
	if got, want := res.Network.CountGates(), n.CountGates(); got != want {
		t.Fatalf("panicking nodes were rewritten anyway: %+v != %+v", got, want)
	}
	equalOnRandom(t, n, res.Network, 4, 103)
}

func TestSelectivePanicSkipsOnlyThatNode(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	// Poison one specific node: the run must still optimize the rest.
	n := rippleAdder(8)
	victim := -1
	for _, id := range n.LiveNodes() {
		if n.IsGate(id) {
			victim = id
			break
		}
	}
	faultinject.Set(faultinject.PointNode, func(p any) {
		if p.(int) == victim {
			panic("poisoned node")
		}
	})

	res := MinimizeMC(n, Options{Verify: true})
	if res.Degraded.RecoveredPanics == 0 {
		t.Fatal("victim node never panicked")
	}
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if res.Network.NumAnds() >= n.NumAnds() {
		t.Fatalf("optimization made no progress: %d ANDs", res.Network.NumAnds())
	}
	equalOnRandom(t, n, res.Network, 4, 104)
}

func TestCanceledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	n := rippleAdder(8)
	res := MinimizeMCContext(ctx, n, Options{Verify: true})
	if !res.Interrupted {
		t.Fatal("run on a canceled context not marked Interrupted")
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", res.Err)
	}
	if res.Network == nil {
		t.Fatal("canceled run returned no network")
	}
	equalOnRandom(t, n, res.Network, 4, 105)
}

func TestMidRunCancellationKeepsNetworkValid(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	// Slow every node down so a short deadline expires mid-round; the result
	// must be a valid, equivalence-checked, partially optimized network.
	faultinject.Set(faultinject.PointNode, faultinject.DelayHook(2*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	n := rippleAdder(16)
	start := time.Now()
	res := MinimizeMCContext(ctx, n, Options{Verify: true})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation was not prompt: took %v", elapsed)
	}
	if !res.Interrupted {
		t.Fatal("deadline expiry not marked Interrupted")
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", res.Err)
	}
	equalOnRandom(t, n, res.Network, 4, 106)
}

// TestExpiredRunLeavesDBUnchanged pins that the shared database holds no
// caller's state: a run whose context expires in the middle of its first
// classify stage must not leave a circuit behind that a fresh database
// would not have built, so the next run on the same database commits the
// same bytes as a run on a fresh one.
func TestExpiredRunLeavesDBUnchanged(t *testing.T) {
	for _, name := range []string{"int-to-float", "square-root"} {
		t.Run(name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			b, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			fresh := MinimizeMC(b.Build(), Options{Workers: 1}).Network

			db := mcdb.New(mcdb.Options{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel at the first cut function, so the lookups of the rest
			// of the classify chunk run on an expired context.
			faultinject.Set(faultinject.PointCutFunction, func(any) { cancel() })
			expired := MinimizeMCContext(ctx, b.Build(), Options{Workers: 1, DB: db})
			faultinject.Reset()
			if !expired.Interrupted {
				t.Fatal("run canceled at its first cut function not marked Interrupted")
			}
			if d := db.Stats().DavioFallbacks; d != 0 {
				t.Fatalf("expired run left %d Davio entries in the shared database", d)
			}

			got := MinimizeMC(b.Build(), Options{Workers: 1, DB: db})
			if got.Err != nil {
				t.Fatal(got.Err)
			}
			if !bytes.Equal(bristol(t, got.Network), bristol(t, fresh)) {
				t.Fatalf("run after an expired one: %d ANDs, on a fresh database: %d ANDs",
					got.Network.NumAnds(), fresh.NumAnds())
			}
		})
	}
}

func TestVerifyPassesOnHealthyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		n := randomNetwork(rng, 7, 80)
		res := MinimizeMC(n, Options{Verify: true})
		if res.Err != nil {
			t.Fatalf("trial %d: healthy run failed verification: %v", trial, res.Err)
		}
		// IncompleteClassifications is expected on random functions (the
		// classifier's iteration limit); the fault counters must stay zero.
		d := res.Degraded
		if d.RejectedRewrites != 0 || d.InvalidEntries != 0 ||
			d.RecoveredPanics != 0 || d.RolledBackRounds != 0 {
			t.Fatalf("trial %d: healthy run degraded: %+v", trial, d)
		}
		equalOnRandom(t, n, res.Network, 3, int64(700+trial))
	}
}

func TestDegradationLogging(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	faultinject.Set(faultinject.PointNode, faultinject.PanicHook("boom"))
	var lines int
	res := MinimizeMC(rippleAdder(4), Options{
		MaxRounds: 1,
		Logf:      func(string, ...any) { lines++ },
	})
	if res.Degraded.RecoveredPanics == 0 {
		t.Fatal("no panic recovered")
	}
	if lines == 0 {
		t.Fatal("degradation events were not logged")
	}
}
