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
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/tables"
	"repro/internal/tt"
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

// BenchmarkDepthRewrite runs the depth cost model on the two circuits whose
// multiplicative depth matters most in practice — the 64-bit adder carry
// chain and one SHA-256 compression round — and records the results (wall
// seconds, final AND count, final AND depth, classification-cache hit rate)
// in BENCH_depth.json, mirroring BENCH_parallel.json. The depth before and
// after is asserted: a depth run that fails to reduce the AND depth of a
// ripple-carry adder means the depth gain evaluation has regressed.
func BenchmarkDepthRewrite(b *testing.B) {
	type record struct {
		Bench      string  `json:"bench"`
		Seconds    float64 `json:"seconds_per_op"`
		InitAnds   int     `json:"initial_ands"`
		FinalAnds  int     `json:"final_ands"`
		InitDepth  int     `json:"initial_and_depth"`
		FinalDepth int     `json:"and_depth"`
		HitRate    float64 `json:"class_cache_hit_rate"`
		GOMAXPROCS int     `json:"gomaxprocs"`
	}
	var records []record
	// The harness invokes each sub-benchmark more than once (the b.N=1 probe,
	// then the -benchtime run); replace rather than append so the JSON keeps
	// one row per configuration, from the final (longest) run.
	upsert := func(rec record) {
		for i := range records {
			if records[i].Bench == rec.Bench {
				records[i] = rec
				return
			}
		}
		records = append(records, rec)
	}

	for _, name := range []string{"adder-64", "sha-256-round"} {
		bm, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		b.Run(name, func(b *testing.B) {
			var rec record
			for i := 0; i < b.N; i++ {
				db := mcdb.New(mcdb.Options{})
				net := bm.Build()
				before := net.CountGates()
				res := core.MinimizeMC(net, core.Options{
					Cost: cost.Depth(), DB: db,
				})
				after := res.Network.CountGates()
				rec = record{
					Bench:      name,
					InitAnds:   before.And,
					FinalAnds:  after.And,
					InitDepth:  before.AndDepth,
					FinalDepth: after.AndDepth,
					HitRate:    db.Stats().ClassHitRate(),
					GOMAXPROCS: runtime.GOMAXPROCS(0),
				}
			}
			if rec.FinalDepth >= rec.InitDepth {
				b.Fatalf("%s: AND depth %d -> %d, want a reduction", name, rec.InitDepth, rec.FinalDepth)
			}
			rec.Seconds = b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(rec.FinalAnds), "ANDs-final")
			b.ReportMetric(float64(rec.FinalDepth), "AND-depth-final")
			b.ReportMetric(100*rec.HitRate, "cache-hit-%")
			upsert(rec)
		})
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_depth.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// classifyWorkload returns the distinct shrunk cut functions of a named
// benchmark circuit in first-appearance order — the stream a cold database
// actually classifies during the first optimization round.
func classifyWorkload(b *testing.B, name string) []tt.T {
	b.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	net := bm.Build()
	cuts := cut.Enumerate(net, cut.Params{})
	seen := make(map[tt.T]bool)
	var fns []tt.T
	for id := 0; id < net.NumNodes(); id++ {
		if !net.IsGate(id) {
			continue
		}
		for _, c := range cuts.For(id) {
			if c.Size() < 2 {
				continue
			}
			sh, _ := c.Table.Shrink()
			if sh.N == 0 || seen[sh] {
				continue
			}
			seen[sh] = true
			fns = append(fns, sh)
		}
	}
	return fns
}

// BenchmarkClassify measures the classification fast path on its real
// workload — every distinct cut function a cold database classifies when
// optimizing two reference circuits — through the full mcdb layers (key
// canonicalization and class cache). Results are recorded in
// BENCH_classify.json: wall seconds, classifications per second, search
// steps, allocations, a per-n breakdown, and the scheduler width and core
// count of the recording host. The companion in-package pair BenchmarkClassify/BenchmarkClassifyReference
// (internal/spectral) measures the same workload against the frozen
// pre-optimization search — the ratio of their classify/s metrics is the
// fast path's speedup. Zero steady-state allocation is pinned separately by
// TestClassifyAllocFree.
func BenchmarkClassify(b *testing.B) {
	type nRec struct {
		N   int `json:"n"`
		Fns int `json:"fns"`
	}
	type record struct {
		Bench       string  `json:"bench"`
		Fns         int     `json:"distinct_functions"`
		Seconds     float64 `json:"seconds_per_op"`
		PerSecond   float64 `json:"classifies_per_second"`
		StepsPerOp  float64 `json:"steps_per_classify"`
		AllocsPerOp float64 `json:"allocs_per_classify"`
		Incomplete  int     `json:"incomplete"`
		ByN         []nRec  `json:"by_n"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		NumCPU      int     `json:"num_cpu"`
	}
	var records []record
	// One row per bench even though the harness invokes each sub-benchmark
	// more than once (b.N=1 probe, then the -benchtime run).
	upsert := func(rec record) {
		for i := range records {
			if records[i].Bench == rec.Bench {
				records[i] = rec
				return
			}
		}
		records = append(records, rec)
	}

	for _, name := range []string{"adder-64", "sha-256-round"} {
		fns := classifyWorkload(b, name)
		var byN []nRec
		{
			cnt := map[int]int{}
			for _, f := range fns {
				cnt[f.N]++
			}
			var ns []int
			for n := range cnt {
				ns = append(ns, n)
			}
			sort.Ints(ns)
			for _, n := range ns {
				byN = append(byN, nRec{N: n, Fns: cnt[n]})
			}
		}
		b.Run(name, func(b *testing.B) {
			var rec record
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			steps := 0
			for i := 0; i < b.N; i++ {
				db := mcdb.New(mcdb.Options{})
				steps = 0
				for _, f := range fns {
					steps += db.Classify(f).Steps
				}
				rec = record{
					Bench:      name,
					Fns:        len(fns),
					Incomplete: db.Stats().Incomplete,
					ByN:        byN,
					GOMAXPROCS: runtime.GOMAXPROCS(0),
					NumCPU:     runtime.NumCPU(),
				}
			}
			runtime.ReadMemStats(&ms1)
			rec.Seconds = b.Elapsed().Seconds() / float64(b.N)
			rec.PerSecond = float64(len(fns)) / rec.Seconds
			rec.StepsPerOp = float64(steps) / float64(len(fns))
			rec.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N) / float64(len(fns))
			b.ReportMetric(rec.PerSecond, "classify/s")
			b.ReportMetric(rec.StepsPerOp, "steps/op")
			upsert(rec)
		})
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_classify.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelRewrite compares sequential and parallel engine runs on
// structure-heavy circuits and records the results in BENCH_parallel.json:
// wall seconds per worker count, per-stage seconds (enumerate / classify /
// commit, summed over rounds), and the speedup relative to the workers=1
// row. The AND counts must agree across every row — the engine's
// determinism contract — so the benchmark doubles as a smoke check.
//
// Honesty note: gomaxprocs and num_cpu record the real scheduler width and
// core count of the recording host. When they read 1, the workers>1 rows
// measure the worker pool's overhead on a single core, not parallel
// speedup — the note field says so explicitly, so nobody mistakes the
// numbers for a scaling result. Per-stage pprof profiles for the same runs
// come from `go test -bench BenchmarkParallelRewrite -cpuprofile`; the
// engine labels each stage with pprof.Do, so the profile separates
// enumerate/classify/commit samples.
func BenchmarkParallelRewrite(b *testing.B) {
	type record struct {
		Bench           string  `json:"bench"`
		Workers         int     `json:"workers"`
		Seconds         float64 `json:"seconds_per_op"`
		EnumSeconds     float64 `json:"enumerate_seconds"`
		ClassifySeconds float64 `json:"classify_seconds"`
		CommitSeconds   float64 `json:"commit_seconds"`
		Speedup         float64 `json:"speedup_vs_workers1,omitempty"`
		FinalAnds       int     `json:"final_ands"`
		HitRate         float64 `json:"class_cache_hit_rate"`
		GOMAXPROCS      int     `json:"gomaxprocs"`
		NumCPU          int     `json:"num_cpu"`
		Note            string  `json:"note,omitempty"`
	}
	var records []record
	// One row per (bench, workers) pair even though the harness invokes
	// each sub-benchmark more than once.
	upsert := func(rec record) {
		for i := range records {
			if records[i].Bench == rec.Bench && records[i].Workers == rec.Workers {
				records[i] = rec
				return
			}
		}
		records = append(records, rec)
	}
	var note string
	if runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1 {
		note = "single-core host: workers>1 rows measure pool overhead, not parallel speedup"
	}

	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		workerCounts[1] = 4 // still exercise the pool on single-core machines
	}
	for _, name := range []string{"adder-64", "multiplier"} {
		bm, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		finals := map[int]int{}
		baseline := map[string]float64{} // seconds of the workers=1 row
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				var rec record
				for i := 0; i < b.N; i++ {
					db := mcdb.New(mcdb.Options{})
					res := core.MinimizeMC(bm.Build(), core.Options{MaxRounds: 2, Workers: workers, DB: db})
					rec = record{
						Bench:      name,
						Workers:    workers,
						FinalAnds:  res.Network.NumAnds(),
						HitRate:    db.Stats().ClassHitRate(),
						GOMAXPROCS: runtime.GOMAXPROCS(0),
						NumCPU:     runtime.NumCPU(),
						Note:       note,
					}
					for _, r := range res.Rounds {
						rec.EnumSeconds += r.EnumerateTime.Seconds()
						rec.ClassifySeconds += r.ClassifyTime.Seconds()
						rec.CommitSeconds += r.CommitTime.Seconds()
					}
				}
				finals[workers] = rec.FinalAnds
				rec.Seconds = b.Elapsed().Seconds() / float64(b.N)
				if workers == 1 {
					baseline[name] = rec.Seconds
				} else if base := baseline[name]; base > 0 {
					rec.Speedup = base / rec.Seconds
					b.ReportMetric(rec.Speedup, "speedup-vs-w1")
				}
				b.ReportMetric(float64(rec.FinalAnds), "ANDs-final")
				b.ReportMetric(100*rec.HitRate, "cache-hit-%")
				upsert(rec)
			})
		}
		if finals[workerCounts[1]] != finals[1] {
			b.Fatalf("%s: workers=%d yields %d ANDs, sequential %d — determinism broken",
				name, workerCounts[1], finals[workerCounts[1]], finals[1])
		}
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
