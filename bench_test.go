// Benchmark harness: one testing.B benchmark per table and figure of the
// paper. Each benchmark optimizes the corresponding circuit(s) and reports
// the AND counts before and after as custom metrics, so the paper's columns
// can be read off `go test -bench` output. The full tables — with one-round
// and convergence columns, runtimes and geometric means — are regenerated by
// `go run ./cmd/mcbench` and recorded in EXPERIMENTS.md.
//
// The large hash benchmarks run a bounded number of rounds here to keep
// `go test -bench=.` practical; mcbench runs them to convergence.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mcdb"
	"repro/internal/tables"
	"repro/internal/xag"
)

// optimizeOnce runs the MC optimizer on one benchmark and reports metrics.
func optimizeOnce(b *testing.B, bm bench.Benchmark, opts tables.Options, db *mcdb.DB) {
	b.Helper()
	var row tables.Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = tables.RunOne(bm, opts, db)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.InitAnd), "ANDs-initial")
	b.ReportMetric(float64(row.ConvAnd), "ANDs-final")
	b.ReportMetric(100*row.ConvImpr(), "impr-%")
	b.ReportMetric(float64(row.Rounds), "rounds")
}

// BenchmarkFig2FullAdder reproduces Figures 1-2 / Example 3.1: the full
// adder drops from 3 AND gates to its multiplicative complexity of 1.
func BenchmarkFig2FullAdder(b *testing.B) {
	build := func() *xag.Network {
		n := xag.New()
		x, y, cin := n.AddPI("a"), n.AddPI("b"), n.AddPI("cin")
		ab := n.Xor(x, y)
		n.AddPO(n.Xor(ab, cin), "sum")
		n.AddPO(n.Or(n.And(x, y), n.And(cin, ab)), "cout")
		return n
	}
	var final int
	for i := 0; i < b.N; i++ {
		res := core.MinimizeMC(build(), core.Options{})
		final = res.Network.NumAnds()
	}
	if final != 1 {
		b.Fatalf("full adder MC = %d, want 1", final)
	}
	b.ReportMetric(3, "ANDs-initial")
	b.ReportMetric(float64(final), "ANDs-final")
}

// BenchmarkTable1 regenerates the EPFL rows (Table 1): initial counts come
// from the generic size baseline, then MC rewriting runs to convergence
// (capped for the slowest arithmetic circuits).
func BenchmarkTable1(b *testing.B) {
	db := mcdb.New(mcdb.Options{})
	for _, bm := range bench.EPFL() {
		rounds := 0
		switch bm.Name {
		case "divisor", "log2", "sine", "multiplier", "square-root", "square":
			rounds = 3
		}
		opts := tables.Options{Baseline: true, MaxRounds: rounds}
		b.Run(fmt.Sprintf("%s/%s", bm.Group, bm.Name), func(b *testing.B) {
			optimizeOnce(b, bm, opts, db)
		})
	}
}

// BenchmarkTable2 regenerates the MPC/FHE rows (Table 2). The three hash
// functions are bounded to two rounds here; see EXPERIMENTS.md for the
// converged numbers.
func BenchmarkTable2(b *testing.B) {
	db := mcdb.New(mcdb.Options{})
	for _, bm := range bench.MPC() {
		rounds := 0
		switch bm.Group {
		case bench.GroupHash:
			rounds = 2
		case bench.GroupCipher:
			rounds = 2
		}
		opts := tables.Options{MaxRounds: rounds}
		b.Run(fmt.Sprintf("%s/%s", bm.Group, bm.Name), func(b *testing.B) {
			optimizeOnce(b, bm, opts, db)
		})
	}
}

// BenchmarkAblationCutSize sweeps the cut size K (the paper fixes K = 6,
// the largest function width with known-optimal circuits).
func BenchmarkAblationCutSize(b *testing.B) {
	bm, _ := bench.ByName("multiplier")
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			db := mcdb.New(mcdb.Options{})
			opts := tables.Options{MaxRounds: 2, Core: core.Options{CutSize: k}}
			optimizeOnce(b, bm, opts, db)
		})
	}
}

// BenchmarkAblationCutLimit sweeps the priority-cut limit (the paper's
// Section 4.1 picks 12 as the runtime/quality sweet spot).
func BenchmarkAblationCutLimit(b *testing.B) {
	bm, _ := bench.ByName("multiplier")
	for _, limit := range []int{4, 8, 12, 24} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			db := mcdb.New(mcdb.Options{})
			opts := tables.Options{MaxRounds: 2, Core: core.Options{CutLimit: limit}}
			optimizeOnce(b, bm, opts, db)
		})
	}
}

// BenchmarkAblationZeroGain measures accepting zero-gain rewrites.
func BenchmarkAblationZeroGain(b *testing.B) {
	bm, _ := bench.ByName("voter")
	for _, zg := range []bool{false, true} {
		b.Run(fmt.Sprintf("zeroGain=%v", zg), func(b *testing.B) {
			db := mcdb.New(mcdb.Options{})
			opts := tables.Options{MaxRounds: 3, Core: core.Options{AllowZeroGain: zg}}
			optimizeOnce(b, bm, opts, db)
		})
	}
}

// BenchmarkConvergence32BitAdder is the paper's exactness witness: the
// 32-bit adder must reach exactly 32 AND gates, the known optimum for the
// symmetric carry chain (Boyar & Peralta).
func BenchmarkConvergence32BitAdder(b *testing.B) {
	bm, _ := bench.ByName("adder-32")
	db := mcdb.New(mcdb.Options{})
	var final int
	for i := 0; i < b.N; i++ {
		row, err := tables.RunOne(bm, tables.Options{}, db)
		if err != nil {
			b.Fatal(err)
		}
		final = row.ConvAnd
	}
	if final != 32 {
		b.Fatalf("32-bit adder converged to %d ANDs, want 32", final)
	}
	b.ReportMetric(float64(final), "ANDs-final")
}
