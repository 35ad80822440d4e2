// Command mcopt minimizes the multiplicative complexity (AND-gate count) of
// a logic network, implementing the cut-rewriting algorithm of Testa et al.,
// "Reducing the Multiplicative Complexity in Logic Networks for Cryptography
// and Security Applications" (DAC 2019).
//
// Circuits are read and written in Bristol fashion, the standard format of
// the MPC benchmark repositories:
//
//	mcopt -in adder64.txt -out adder64.opt.txt
//	mcopt -bench sha-256 -rounds 2 -v
//	mcopt -bench adder-32 -dot adder.dot
//	mcopt -in big.txt -timeout 30s -verify -out big.opt.txt
//	mcopt -bench adder-64 -cost depth -verify
//	mcopt -bench sha-256 -cpuprofile cpu.out -memprofile mem.out
//
// The -cpuprofile, -memprofile, and -trace flags capture standard Go
// profiles of the optimization; the engine labels its samples per pipeline
// stage, so `go tool pprof -tagfocus stage=classify cpu.out` isolates one
// stage.
//
// The -cost flag selects the optimization objective: mc (AND count, the
// paper's multiplicative complexity, default), size (AND+XOR count), or
// depth (multiplicative depth — the longest AND chain, which dominates FHE
// noise growth and T-depth).
//
// Exit codes: 0 on success (including a run stopped by -timeout, which
// still writes the partially optimized circuit), 1 on I/O errors, 2 on
// usage errors, 3 when the input circuit fails to parse, and 4 when
// -verify finds a rewriting round inequivalent to the input.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/profiling"
	"repro/internal/xag"
	"repro/internal/xoropt"
)

// Distinct exit codes so scripted callers can tell failure classes apart.
const (
	exitOK     = 0
	exitIO     = 1
	exitUsage  = 2
	exitParse  = 3
	exitVerify = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		inPath    = fs.String("in", "", "input circuit (Bristol fashion); - for stdin")
		outPath   = fs.String("out", "", "write optimized circuit here (Bristol fashion)")
		dotPath   = fs.String("dot", "", "write optimized circuit as Graphviz DOT")
		benchName = fs.String("bench", "", "optimize a built-in benchmark instead of -in (see -list)")
		list      = fs.Bool("list", false, "list built-in benchmarks")
		dump      = fs.Bool("dump", false, "write the input network to -out unoptimized and exit")
		rounds    = fs.Int("rounds", 0, "maximum rewriting rounds (0 = until convergence)")
		cutSize   = fs.Int("k", 6, "cut size K (2..6)")
		cutLimit  = fs.Int("cuts", 12, "priority cuts per node")
		costName  = fs.String("cost", "mc", "cost model: mc (AND count), size (AND+XOR), or depth (multiplicative depth)")
		zeroGain  = fs.Bool("zero-gain", false, "also apply zero-gain rewrites")
		xorCSE    = fs.Bool("xoropt", false, "after MC rewriting, shrink the XOR count (Paar CSE on the linear blocks)")
		verify    = fs.Bool("verify", false, "miter-check every round against the input; roll back and fail on mismatch")
		timeout   = fs.Duration("timeout", 0, "stop optimizing after this long and keep the best network so far (0 = no limit)")
		workers   = fs.Int("workers", 0, "worker goroutines for the parallel stages (0 = GOMAXPROCS); the result is identical for any value")
		dbPath    = fs.String("db", "", "preload a persisted synthesis database (snapshot or legacy gob)")
		dbSave    = fs.String("db-save", "", "persist the synthesis database here afterwards (atomic replace)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile here (filter stages with -tagfocus stage=...)")
		memProf   = fs.String("memprofile", "", "write a heap allocation profile here")
		tracePath = fs.String("trace", "", "write a runtime execution trace here")
		verbose   = fs.Bool("v", false, "per-round statistics")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mcopt: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}
	// Validate option ranges at the boundary: the library panics on a cut
	// size it has no truth tables for, which must surface as a usage error,
	// not a crash.
	switch {
	case *cutSize < 2 || *cutSize > 6:
		fmt.Fprintf(stderr, "mcopt: -k must be in 2..6, got %d\n", *cutSize)
		return exitUsage
	case *cutLimit < 1:
		fmt.Fprintf(stderr, "mcopt: -cuts must be at least 1, got %d\n", *cutLimit)
		return exitUsage
	case *rounds < 0:
		fmt.Fprintf(stderr, "mcopt: -rounds must not be negative, got %d\n", *rounds)
		return exitUsage
	case *timeout < 0:
		fmt.Fprintf(stderr, "mcopt: -timeout must not be negative, got %v\n", *timeout)
		return exitUsage
	case *workers < 0:
		fmt.Fprintf(stderr, "mcopt: -workers must not be negative, got %d\n", *workers)
		return exitUsage
	}
	model, err := cost.FromName(*costName)
	if err != nil {
		fmt.Fprintf(stderr, "mcopt: -cost: %v\n", err)
		return exitUsage
	}

	if *list {
		for _, b := range append(bench.EPFL(), bench.MPC()...) {
			fmt.Fprintf(stdout, "%-24s %s\n", b.Name, b.Group)
		}
		return exitOK
	}

	net, code, err := loadNetwork(*inPath, *benchName, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "mcopt:", err)
		return code
	}

	if *dump {
		if *outPath == "" {
			fmt.Fprintln(stderr, "mcopt: -dump needs -out")
			return exitUsage
		}
		if err := writeFile(*outPath, net.WriteBristol); err != nil {
			fmt.Fprintln(stderr, "mcopt:", err)
			return exitIO
		}
		return exitOK
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := core.Options{
		CutSize:       *cutSize,
		CutLimit:      *cutLimit,
		Cost:          model,
		MaxRounds:     *rounds,
		AllowZeroGain: *zeroGain,
		Verify:        *verify,
		Workers:       *workers,
	}
	if *dbPath != "" || *dbSave != "" {
		opts.DB = mcdb.New(mcdb.Options{})
	}
	if *dbPath != "" {
		rep, err := opts.DB.LoadFile(*dbPath)
		if err != nil {
			fmt.Fprintln(stderr, "mcopt:", err)
			return exitIO
		}
		if *verbose {
			fmt.Fprintf(stderr, "db: loaded %d entries from %s (%d quarantined)\n", rep.Loaded, *dbPath, rep.Quarantined)
		}
	}
	if *verbose {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		}
	}

	prof := profiling.Config{CPUProfile: *cpuProf, MemProfile: *memProf, Trace: *tracePath}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, "mcopt:", err)
		return exitIO
	}

	before := net.CountGates()
	res := core.MinimizeMCContext(ctx, net, opts)
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "mcopt:", err)
		return exitIO
	}

	var verr *core.VerifyError
	switch {
	case errors.As(res.Err, &verr):
		fmt.Fprintln(stderr, "mcopt:", verr)
		return exitVerify
	case res.Interrupted:
		fmt.Fprintf(stderr, "mcopt: stopped after %v (%v); keeping the network optimized so far\n",
			*timeout, res.Err)
	}

	if *xorCSE {
		shrunk := xoropt.Optimize(res.Network)
		if *verbose {
			fmt.Fprintf(stderr, "xoropt: XOR %d -> %d\n",
				res.Network.NumXors(), shrunk.NumXors())
		}
		res.Network = shrunk
	}
	after := res.Network.CountGates()

	if *verbose {
		for i, r := range res.Rounds {
			fmt.Fprintf(stderr, "round %2d: AND %6d -> %6d  XOR %6d -> %6d  (%d rewrites, %v)\n",
				i+1, r.Before.And, r.After.And, r.Before.Xor, r.After.Xor,
				r.Replacements, r.Duration.Round(1e6))
		}
		if d := res.Degraded; d.Total() > 0 {
			fmt.Fprintf(stderr, "degradation: %d rejected rewrites, %d invalid entries, %d incomplete classifications, %d recovered panics\n",
				d.RejectedRewrites, d.InvalidEntries, d.IncompleteClassifications, d.RecoveredPanics)
		}
	}
	fmt.Fprintf(stderr, "AND %d -> %d (%.0f%%)  XOR %d -> %d  AND-depth %d -> %d  rounds %d\n",
		before.And, after.And, 100*(1-ratio(after.And, before.And)),
		before.Xor, after.Xor, before.AndDepth, after.AndDepth, len(res.Rounds))

	if *outPath != "" {
		if err := writeFile(*outPath, res.Network.WriteBristol); err != nil {
			fmt.Fprintln(stderr, "mcopt:", err)
			return exitIO
		}
	}
	if *dotPath != "" {
		if err := writeFile(*dotPath, res.Network.WriteDOT); err != nil {
			fmt.Fprintln(stderr, "mcopt:", err)
			return exitIO
		}
	}
	if *dbSave != "" {
		// Atomic replace: an interrupted save leaves the previous database
		// intact instead of a torn file.
		n, err := opts.DB.SaveFile(*dbSave)
		if err != nil {
			fmt.Fprintln(stderr, "mcopt:", err)
			return exitIO
		}
		if *verbose {
			fmt.Fprintf(stderr, "db: saved %d entries to %s\n", n, *dbSave)
		}
	}
	return exitOK
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// loadNetwork resolves the input circuit and classifies failures: usage
// errors (no input, unknown benchmark), I/O errors, and parse errors each
// map to their own exit code.
func loadNetwork(inPath, benchName string, stdin io.Reader) (*xag.Network, int, error) {
	parse := func(r io.Reader, name string) (*xag.Network, int, error) {
		net, err := xag.ReadBristol(r)
		if err != nil {
			return nil, exitParse, fmt.Errorf("%s: %v", name, err)
		}
		return net, exitOK, nil
	}
	switch {
	case benchName != "" && inPath != "":
		return nil, exitUsage, fmt.Errorf("-in and -bench are mutually exclusive")
	case benchName != "":
		b, ok := bench.ByName(benchName)
		if !ok {
			return nil, exitUsage, fmt.Errorf("unknown benchmark %q (try -list)", benchName)
		}
		return b.Build(), exitOK, nil
	case inPath == "-":
		return parse(stdin, "stdin")
	case inPath != "":
		f, err := os.Open(inPath)
		if err != nil {
			return nil, exitIO, err
		}
		defer f.Close()
		return parse(f, inPath)
	}
	return nil, exitUsage, fmt.Errorf("need -in or -bench (see -h)")
}
