// Package opt provides the generic size optimization baseline the paper
// compares against (its Table 1/2 "Initial" columns are produced by an ABC
// script that minimizes total gate count under a unit cost model). Here the
// baseline is the same cut-rewriting engine as the core optimizer, but with
// a unit cost for AND and XOR gates, plus structural-hash sweeping — a size
// optimizer that, like the paper's baseline, has no reason to prefer XOR
// over AND gates.
package opt

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/xag"
)

// SizeOptimize returns a size-optimized copy of the network: unit-cost cut
// rewriting with small cuts, as in classic size rewriting (K = 4, 12 cuts
// per node), iterated to a fixed point or 4 rounds, with dead logic swept.
func SizeOptimize(n *xag.Network) *xag.Network {
	res := core.MinimizeMC(n, core.Options{
		Cost:      cost.Size(),
		CutSize:   4,
		CutLimit:  12,
		MaxRounds: 4,
	})
	return res.Network
}
