// Command mcbench regenerates the experimental tables of the paper:
//
//	mcbench -table 1        # EPFL combinational suite (Table 1)
//	mcbench -table 2        # MPC/FHE crypto suite (Table 2)
//	mcbench -table all
//	mcbench -quick          # cap rounds, skip the largest circuits
//	mcbench -ablation       # cut-size / cut-limit sweeps (Section 4.1)
//	mcbench -only sha-256
//	mcbench -quick -cpuprofile cpu.out -trace trace.out
//
// The -cpuprofile, -memprofile, and -trace flags capture standard Go
// profiles of the whole run; engine samples carry per-stage pprof labels
// (stage = enumerate | classify | commit).
//
// Exit codes: 0 on success, 2 on usage errors, 4 when an optimized
// benchmark fails its equivalence check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/profiling"
	"repro/internal/tables"
)

// Distinct exit codes so scripted callers can tell failure classes apart.
const (
	exitOK     = 0
	exitUsage  = 2
	exitVerify = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.String("table", "all", "which table to regenerate: 1, 2, all, or ext (beyond-paper benchmarks)")
		quick    = fs.Bool("quick", false, "cap convergence at 3 rounds and skip the largest circuits")
		only     = fs.String("only", "", "comma-separated benchmark names to run")
		cutSize  = fs.Int("k", 6, "cut size K")
		cutLimit = fs.Int("cuts", 12, "priority cuts per node")
		costName = fs.String("cost", "mc", "cost model: mc (AND count), size (AND+XOR), or depth (multiplicative depth)")
		workers  = fs.Int("workers", 0, "worker goroutines for the parallel stages (0 = GOMAXPROCS); results are identical for any value")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile here (filter stages with -tagfocus stage=...)")
		memProf  = fs.String("memprofile", "", "write a heap allocation profile here")
		traceOut = fs.String("trace", "", "write a runtime execution trace here")
		ablation = fs.Bool("ablation", false, "run the cut-size and cut-limit ablations instead")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	prof := profiling.Config{CPUProfile: *cpuProf, MemProfile: *memProf, Trace: *traceOut}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mcbench: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}
	switch *table {
	case "1", "2", "all", "ext":
	default:
		fmt.Fprintf(stderr, "mcbench: unknown -table %q (want 1, 2, all, or ext)\n", *table)
		return exitUsage
	}
	if *cutSize < 2 || *cutSize > 6 {
		fmt.Fprintf(stderr, "mcbench: -k must be in 2..6, got %d\n", *cutSize)
		return exitUsage
	}
	if *cutLimit < 1 {
		fmt.Fprintf(stderr, "mcbench: -cuts must be at least 1, got %d\n", *cutLimit)
		return exitUsage
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "mcbench: -workers must not be negative, got %d\n", *workers)
		return exitUsage
	}
	model, err := cost.FromName(*costName)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: -cost: %v\n", err)
		return exitUsage
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, "mcbench:", err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			if code == exitOK {
				code = exitUsage
			}
		}
	}()

	if *ablation {
		return runAblation(stdout, stderr)
	}

	maxRounds := 0
	if *quick {
		maxRounds = 3
	}
	filter := func(list []bench.Benchmark) []bench.Benchmark {
		if *only != "" {
			keep := map[string]bool{}
			for _, n := range strings.Split(*only, ",") {
				keep[strings.TrimSpace(n)] = true
			}
			var out []bench.Benchmark
			for _, b := range list {
				if keep[b.Name] {
					out = append(out, b)
				}
			}
			return out
		}
		if *quick {
			var out []bench.Benchmark
			for _, b := range list {
				if b.Name == "sha-256" || b.Name == "sha-1" || b.Name == "md5" {
					continue
				}
				out = append(out, b)
			}
			return out
		}
		return list
	}

	db := mcdb.New(mcdb.Options{})
	coreOpts := core.Options{CutSize: *cutSize, CutLimit: *cutLimit, Cost: model, Workers: *workers, DB: db}

	emit := func(title string, list []bench.Benchmark, opts tables.Options) int {
		rows, err := tables.Run(list, opts)
		if err != nil {
			fmt.Fprintf(stderr, "mcbench: %v\n", err)
			return exitVerify
		}
		tables.SortByGroup(rows)
		fmt.Fprintln(stdout, tables.Format(title, rows))
		return exitOK
	}

	if *table == "1" || *table == "all" {
		if c := emit("Table 1: EPFL benchmarks (initial = generic size optimization)",
			filter(bench.EPFL()), tables.Options{Baseline: true, MaxRounds: maxRounds, Core: coreOpts}); c != exitOK {
			return c
		}
	}
	if *table == "2" || *table == "all" {
		if c := emit("Table 2: MPC and FHE benchmarks",
			filter(bench.MPC()), tables.Options{MaxRounds: maxRounds, Core: coreOpts}); c != exitOK {
			return c
		}
	}
	if *table == "ext" {
		if c := emit("Extension benchmarks (beyond the paper)",
			filter(bench.Extended()), tables.Options{MaxRounds: maxRounds, Core: coreOpts}); c != exitOK {
			return c
		}
	}
	return exitOK
}

// runAblation sweeps the design parameters called out in Section 4.1 of the
// paper (cut size 6, cut limit 12) on a medium benchmark.
func runAblation(stdout, stderr io.Writer) int {
	b, ok := bench.ByName("multiplier")
	if !ok {
		fmt.Fprintln(stderr, "mcbench: multiplier benchmark missing")
		return exitUsage
	}
	fmt.Fprintln(stdout, "Ablation: cut size K (cut limit 12, multiplier benchmark)")
	for _, k := range []int{3, 4, 5, 6} {
		if c := runOneConfig(stdout, stderr, b, core.Options{CutSize: k, CutLimit: 12}); c != exitOK {
			return c
		}
	}
	fmt.Fprintln(stdout, "\nAblation: cut limit (K = 6, multiplier benchmark)")
	for _, limit := range []int{4, 8, 12, 16, 24} {
		if c := runOneConfig(stdout, stderr, b, core.Options{CutSize: 6, CutLimit: limit}); c != exitOK {
			return c
		}
	}
	fmt.Fprintln(stdout, "\nAblation: zero-gain acceptance (K = 6, limit 12)")
	for _, zg := range []bool{false, true} {
		opts := core.Options{CutSize: 6, CutLimit: 12, AllowZeroGain: zg}
		if c := runOneConfig(stdout, stderr, b, opts); c != exitOK {
			return c
		}
	}
	return exitOK
}

func runOneConfig(stdout, stderr io.Writer, b bench.Benchmark, opts core.Options) int {
	start := time.Now()
	row, err := tables.RunOne(b, tables.Options{Core: opts, MaxRounds: 8}, mcdb.New(mcdb.Options{}))
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return exitVerify
	}
	fmt.Fprintf(stdout, "  K=%d limit=%2d zero-gain=%-5v  AND %6d -> %6d (%4.0f%%)  rounds=%d  %v\n",
		opts.CutSize, opts.CutLimit, opts.AllowZeroGain,
		row.InitAnd, row.ConvAnd, 100*row.ConvImpr(), row.Rounds,
		time.Since(start).Round(time.Millisecond))
	return exitOK
}
