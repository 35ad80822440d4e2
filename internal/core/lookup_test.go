package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/mcdb"
	"repro/internal/tt"
	"repro/internal/xag"
)

// lookupTrace is what one optimization on a fresh database asked of it:
// the representatives that only incomplete classifications of cut functions
// reached, and which of them got a stored entry.
type lookupTrace struct {
	res        Result
	incomplete int    // representatives reached only by incomplete classifications
	built      []tt.T // those among them with a stored entry
}

// traceLookups optimizes n on a fresh database while recording every cut
// function the engine classifies and every entry the database stores.
func traceLookups(t *testing.T, n *xag.Network, opts Options) lookupTrace {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	db := mcdb.New(mcdb.Options{})
	stored := make(map[tt.T]bool)
	db.SetEntryHook(func(e *mcdb.Entry) { stored[e.F] = true }) // runs under the database lock
	funcs := make(map[tt.T]bool)
	faultinject.Set(faultinject.PointCutFunction, func(p any) { // runs under the registry lock
		if f := *p.(*tt.T); f.N > 0 {
			funcs[f] = true
		}
	})
	opts.DB = db
	res := MinimizeMC(n, opts)
	faultinject.Reset()
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	complete, incomplete := make(map[tt.T]bool), make(map[tt.T]bool)
	for f := range funcs {
		c := db.Classify(f) // a class-cache hit: the engine classified f
		if c.Complete {
			complete[c.Repr] = true
		} else {
			incomplete[c.Repr] = true
		}
	}
	tr := lookupTrace{res: res}
	for r := range incomplete {
		if complete[r] {
			continue // also the representative of a usable classification
		}
		tr.incomplete++
		if stored[r] {
			tr.built = append(tr.built, r)
		}
	}
	return tr
}

// TestIncompleteClassificationBuildsNoEntry pins the classify-first lookup:
// a cut whose classification is incomplete is skipped, so the engine never
// asks the database for its representative's circuit, and no such circuit
// is synthesized. On adder-64 an engine that builds before it skips leaves
// 26 entries, 6 of them by Davio decomposition, where 13 suffice.
func TestIncompleteClassificationBuildsNoEntry(t *testing.T) {
	b, ok := bench.ByName("adder-64")
	if !ok {
		t.Fatal("adder-64 benchmark missing")
	}
	tr := traceLookups(t, b.Build(), Options{Cost: cost.MC(), Workers: 2})
	if tr.res.Degraded.IncompleteClassifications == 0 || tr.incomplete == 0 {
		t.Fatalf("no incomplete classifications (%d skipped cuts, %d representatives): the test exercises nothing",
			tr.res.Degraded.IncompleteClassifications, tr.incomplete)
	}
	if len(tr.built) > 0 {
		s := tr.res.DB.Stats()
		t.Fatalf("%d of %d representatives reached only by incomplete classifications got an entry (e.g. %s); "+
			"database: %d entries, %d exact, %d Davio",
			len(tr.built), tr.incomplete, tr.built[0], tr.res.DB.NumEntries(), s.ExactSyntheses, s.DavioFallbacks)
	}
}
