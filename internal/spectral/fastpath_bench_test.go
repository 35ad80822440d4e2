package spectral

// Microbenchmarks of the classification fast path on its real workload: the
// distinct shrunk cut functions a cold database classifies when optimizing
// adder-64 and sha-256-round. BenchmarkClassify runs the shipping pooled
// canonizer, BenchmarkClassifyReference the frozen pre-optimization search
// (fastpath_test.go) on the same functions — the ratio of their classify/s
// metrics is the fast path's cold-DB speedup on that workload.

import (
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/cut"
	"repro/internal/tt"
)

// classifyWorkload returns the distinct shrunk cut functions of a named
// benchmark circuit, in first-appearance order — the stream a cold DB
// actually classifies.
func classifyWorkload(tb testing.TB, name string) []tt.T {
	tb.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %s", name)
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

func benchClassify(b *testing.B, classify func(tt.T) Result) {
	for _, name := range []string{"adder-64", "sha-256-round"} {
		fns := classifyWorkload(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				steps = 0
				for _, f := range fns {
					steps += classify(f).Steps
				}
			}
			b.ReportMetric(float64(len(fns))*float64(b.N)/b.Elapsed().Seconds(), "classify/s")
			b.ReportMetric(float64(steps)/float64(len(fns)), "steps/op")
		})
		// Per-n breakdown rows for the same workload.
		byN := map[int][]tt.T{}
		for _, f := range fns {
			byN[f.N] = append(byN[f.N], f)
		}
		var ns []int
		for n := range byN {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		for _, n := range ns {
			sub := byN[n]
			b.Run(name+"/n="+string(rune('0'+n)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, f := range sub {
						classify(f)
					}
				}
				b.ReportMetric(float64(len(sub))*float64(b.N)/b.Elapsed().Seconds(), "classify/s")
			})
		}
	}
}

// BenchmarkClassify measures the shipping fast path (pooled canonizer,
// counting sort, multiset bound) cold — every call runs the full search.
func BenchmarkClassify(b *testing.B) {
	benchClassify(b, func(f tt.T) Result { return Classify(f, 0) })
}

// BenchmarkClassifyReference measures the frozen pre-optimization search on
// the identical workload (n ≤ 4 goes through the same exact tables in both).
func BenchmarkClassifyReference(b *testing.B) {
	benchClassify(b, func(f tt.T) Result {
		if f.N <= 4 {
			return classifyExact(f)
		}
		return refClassifySpectral(f, 0)
	})
}
