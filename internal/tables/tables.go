// Package tables regenerates the paper's experimental tables: for each
// benchmark it reports the initial AND/XOR counts, the counts after one
// rewriting round, and the counts after repeating until convergence,
// together with runtimes, per-benchmark improvements and the per-group
// normalized geometric means — the exact columns of Tables 1 and 2.
package tables

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mcdb"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/xag"
)

// Row is one line of a result table.
type Row struct {
	Name  string
	Group bench.Group

	PIs, POs int

	InitAnd, InitXor, InitDepth int

	R1And, R1Xor int
	R1Time       time.Duration

	ConvAnd, ConvXor, ConvDepth int
	ConvTime                    time.Duration
	Rounds                      int
	Converged                   bool
}

// R1Impr returns the one-round AND improvement fraction.
func (r Row) R1Impr() float64 { return impr(r.InitAnd, r.R1And) }

// ConvImpr returns the AND improvement fraction at convergence.
func (r Row) ConvImpr() float64 { return impr(r.InitAnd, r.ConvAnd) }

func impr(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return 1 - float64(after)/float64(before)
}

// Options configures a table run.
type Options struct {
	// Baseline applies the generic size optimizer before measuring the
	// initial counts, as the paper does for the EPFL suite (Table 1). The
	// Table 2 netlists are used as-is.
	Baseline bool
	// MaxRounds caps the convergence loop (0 = run until no improvement,
	// like the paper).
	MaxRounds int
	// Core options (cut size, cut limit, …). The DB is shared across all
	// benchmarks of a run, mirroring the paper's reusable XAG_DB.
	Core core.Options
}

// RunOne optimizes a single benchmark and fills its row. It returns an
// error — and no row — when the optimized network fails the equivalence
// check against the original: an optimizer bug must never produce a table
// silently.
func RunOne(b bench.Benchmark, opts Options, db *mcdb.DB) (Row, error) {
	net := b.Build()
	if opts.Baseline {
		net = opt.SizeOptimize(net)
	}
	row := Row{Name: b.Name, Group: b.Group, PIs: net.NumPIs(), POs: net.NumPOs()}
	c := net.CountGates()
	row.InitAnd, row.InitXor, row.InitDepth = c.And, c.Xor, c.AndDepth

	coreOpts := opts.Core
	coreOpts.DB = db
	coreOpts.MaxRounds = opts.MaxRounds
	res := core.MinimizeMC(net, coreOpts)

	if len(res.Rounds) > 0 {
		r1 := res.Rounds[0]
		row.R1And, row.R1Xor, row.R1Time = r1.After.And, r1.After.Xor, r1.Duration
	}
	fin := res.Network.CountGates()
	row.ConvAnd, row.ConvXor, row.ConvDepth = fin.And, fin.Xor, fin.AndDepth
	for _, r := range res.Rounds {
		row.ConvTime += r.Duration
	}
	row.Rounds = len(res.Rounds)
	row.Converged = res.Converged
	if res.Err != nil {
		return Row{}, fmt.Errorf("tables: %s: %w", b.Name, res.Err)
	}
	if err := verifyEquivalent(b, net, res.Network); err != nil {
		return Row{}, err
	}
	return row, nil
}

// verifyEquivalent checks the optimized network against the original
// (exhaustively when narrow enough, by random simulation otherwise).
func verifyEquivalent(b bench.Benchmark, before, after *xag.Network) error {
	if err := sim.Equal(before, after, 4, 0); err != nil {
		return fmt.Errorf("tables: %s: %w", b.Name, err)
	}
	return nil
}

// Run optimizes a benchmark list with a shared database. The first
// verification failure aborts the run; rows completed so far are returned
// alongside the error.
func Run(benchmarks []bench.Benchmark, opts Options) ([]Row, error) {
	db := opts.Core.DB
	if db == nil {
		db = mcdb.New(mcdb.Options{})
	}
	rows := make([]Row, 0, len(benchmarks))
	for _, b := range benchmarks {
		row, err := RunOne(b, opts, db)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GroupGeomeans returns, per group, the normalized geometric mean of the
// one-round and converged AND ratios (the paper's summary rows).
func GroupGeomeans(rows []Row) map[bench.Group][2]float64 {
	type acc struct {
		logR1, logConv float64
		n              int
	}
	accs := map[bench.Group]*acc{}
	for _, r := range rows {
		if r.InitAnd == 0 {
			continue
		}
		a := accs[r.Group]
		if a == nil {
			a = &acc{}
			accs[r.Group] = a
		}
		a.logR1 += math.Log(float64(r.R1And) / float64(r.InitAnd))
		a.logConv += math.Log(float64(r.ConvAnd) / float64(r.InitAnd))
		a.n++
	}
	out := map[bench.Group][2]float64{}
	for g, a := range accs {
		out[g] = [2]float64{
			math.Exp(a.logR1 / float64(a.n)),
			math.Exp(a.logConv / float64(a.n)),
		}
	}
	return out
}

// Format renders rows in the layout of the paper's tables.
func Format(title string, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-24s %5s %5s | %8s %8s %6s | %8s %8s %9s %6s | %8s %8s %9s %6s %7s %7s\n",
		"Name", "PIs", "POs", "AND", "XOR", "depth",
		"AND", "XOR", "time", "impr.",
		"AND", "XOR", "time", "impr.", "rounds", "depth")
	fmt.Fprintf(&sb, "%-24s %5s %5s | %24s | %34s | %s\n",
		"", "", "", "Initial", "One round", "Repeat until convergence")
	groups := []bench.Group{}
	seen := map[bench.Group]bool{}
	for _, r := range rows {
		if !seen[r.Group] {
			seen[r.Group] = true
			groups = append(groups, r.Group)
		}
	}
	gm := GroupGeomeans(rows)
	for _, g := range groups {
		for _, r := range rows {
			if r.Group != g {
				continue
			}
			conv := fmt.Sprintf("%8d %8d %9s %5.0f%% %7d %7d",
				r.ConvAnd, r.ConvXor, shortDur(r.ConvTime), 100*r.ConvImpr(), r.Rounds, r.ConvDepth)
			if r.Rounds <= 1 && r.R1And == r.InitAnd {
				conv = fmt.Sprintf("%8s %8s %9s %5.0f%% %7d %7s", "//", "//", "", 0.0, r.Rounds, "//")
			}
			fmt.Fprintf(&sb, "%-24s %5d %5d | %8d %8d %6d | %8d %8d %9s %5.0f%% | %s\n",
				r.Name, r.PIs, r.POs, r.InitAnd, r.InitXor, r.InitDepth,
				r.R1And, r.R1Xor, shortDur(r.R1Time), 100*r.R1Impr(), conv)
		}
		m := gm[g]
		fmt.Fprintf(&sb, "%-24s %11s | %24s | %8.2f %24s | %8.2f\n",
			"geomean ("+string(g)+")", "", "1.00", m[0], "", m[1])
	}
	return sb.String()
}

func shortDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

// SortByGroup orders rows for presentation, keeping the registry order
// within each group.
func SortByGroup(rows []Row) {
	order := map[bench.Group]int{
		bench.GroupArith: 0, bench.GroupControl: 1,
		bench.GroupCipher: 2, bench.GroupHash: 3, bench.GroupMPC: 4,
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return order[rows[i].Group] < order[rows[j].Group]
	})
}
