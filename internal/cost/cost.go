// Package cost defines the pluggable cost-model layer of the rewriting
// engine: the objective a run optimizes for, expressed as a small interface
// instead of ad-hoc branching on an enum.
//
// Three models ship with the repository:
//
//   - MC minimizes the AND count — the multiplicative complexity of the
//     paper (DAC 2019), and the default.
//   - Size minimizes AND+XOR count alike, the classical size baseline the
//     paper compares against.
//   - Depth minimizes the multiplicative depth (the longest chain of AND
//     gates from any input to any output), with AND count as tiebreak. This
//     is the objective of Haener & Soeken, "Lowering the T-depth of Quantum
//     Circuits By Reducing the Multiplicative Depth Of Logic Networks":
//     multiplicative depth dominates FHE noise growth and the T-depth of
//     fault-tolerant quantum circuits.
//
// The engine consults the model at every decision point that used to branch
// on the old core.Cost enum: ranking candidate cuts during enumeration,
// scoring a replacement's gain against the maximum fanout-free cone,
// selecting among several stored database implementations of one affine
// class, and deciding whether a round improved the network. New objectives
// (weighted gates, depth×size products) only need a new Model — no engine
// surgery.
package cost

import (
	"fmt"

	"repro/internal/xag"
)

// Costs is the cost vector of one cone of logic: the gates it contains and
// the multiplicative depth at its root. The engine fills Depth only for
// models that report NeedsDepth; other models must not read it.
type Costs struct {
	Ands int // AND gates in the cone
	Xors int // XOR gates in the cone
	// Depth is the multiplicative depth at the cone's root (AND gates on
	// the longest input-to-root path, counting logic above the cone too).
	Depth int
}

// Impl summarizes one stored database implementation of a function class,
// for model-driven selection when several circuits realize the class.
type Impl struct {
	Ands  int // AND steps of the stored circuit
	Xors  int // worst-case XOR gates of a materialization
	Depth int // multiplicative depth of the stored circuit (inputs at 0)
}

// Model is one optimization objective. Implementations must be immutable
// and safe for concurrent use: the engine shares one model across all
// workers of a round.
type Model interface {
	// Name returns the CLI-facing identifier ("mc", "size", "depth").
	Name() string

	// Gain scores replacing a cone costing old with an implementation
	// costing new. The engine maximizes gain; tie orders candidates with
	// equal gain (lower is better). A replacement is applied only when its
	// gain is positive (or zero, with AllowZeroGain).
	Gain(old, new Costs) (gain, tie int)

	// Improved reports whether a rewriting round's output improves on its
	// input under this model; the convergence loop stops when it returns
	// false.
	Improved(before, after xag.Counts) bool

	// NeedsDepth reports whether the model requires per-node multiplicative
	// depth tracking (Costs.Depth, Impl.Depth) to evaluate gains. The
	// engine only pays for depth maintenance when this is true.
	NeedsDepth() bool

	// Better reports whether stored implementation a should be preferred
	// over b when several database circuits realize the same class.
	Better(a, b Impl) bool

	// CutRank returns a pruning priority for a candidate cut whose leaves
	// sit at the given multiplicative depths: lower ranks are kept
	// preferentially when the per-node cut budget overflows. Models that do
	// not care return a constant, which keeps the enumerator's default
	// (size, leaf-order) ranking bit-identical.
	CutRank(leafDepths []int) int
}

// MC returns the multiplicative-complexity model: minimize AND gates, break
// ties by XOR delta. This is the paper's objective and the default
// throughout the repository.
func MC() Model { return mcModel{} }

// Size returns the generic size model: AND and XOR gates count alike, the
// baseline the paper's tables compare against.
func Size() Model { return sizeModel{} }

// Depth returns the multiplicative-depth model: minimize the AND depth at
// the root, with AND-count reduction as tiebreak. Depth-neutral rewrites
// that reduce the AND count are also accepted, so a converged depth run
// never has more AND gates than it needs for its depth.
func Depth() Model { return depthModel{} }

// FromName resolves a CLI name ("mc", "size", "depth"; "" defaults to
// "mc") to its model.
func FromName(name string) (Model, error) {
	switch name {
	case "", "mc":
		return MC(), nil
	case "size":
		return Size(), nil
	case "depth":
		return Depth(), nil
	}
	return nil, fmt.Errorf("cost: unknown model %q (want mc, size, or depth)", name)
}

type mcModel struct{}

func (mcModel) Name() string { return "mc" }

func (mcModel) Gain(old, new Costs) (int, int) {
	return old.Ands - new.Ands, new.Xors - old.Xors
}

func (mcModel) Improved(before, after xag.Counts) bool {
	return after.And < before.And
}

func (mcModel) NeedsDepth() bool { return false }

func (mcModel) Better(a, b Impl) bool {
	if a.Ands != b.Ands {
		return a.Ands < b.Ands
	}
	return a.Xors < b.Xors
}

func (mcModel) CutRank([]int) int { return 0 }

type sizeModel struct{}

func (sizeModel) Name() string { return "size" }

func (sizeModel) Gain(old, new Costs) (int, int) {
	return (old.Ands + old.Xors) - (new.Ands + new.Xors), new.Xors - old.Xors
}

func (sizeModel) Improved(before, after xag.Counts) bool {
	return after.And+after.Xor < before.And+before.Xor
}

func (sizeModel) NeedsDepth() bool { return false }

func (sizeModel) Better(a, b Impl) bool {
	return a.Ands+a.Xors < b.Ands+b.Xors
}

func (sizeModel) CutRank([]int) int { return 0 }

// depthGainScale separates the depth term of the composite depth gain from
// its AND-count tiebreak term; the AND term is clamped below the scale so
// the comparison stays lexicographic: any depth reduction outranks any
// AND-count change, and among equal depth deltas more AND reduction wins.
const (
	depthGainScale = 256
	depthAndClamp  = depthGainScale/2 - 1
)

type depthModel struct{}

func (depthModel) Name() string { return "depth" }

func (depthModel) Gain(old, new Costs) (int, int) {
	and := old.Ands - new.Ands
	if and > depthAndClamp {
		and = depthAndClamp
	} else if and < -depthAndClamp {
		and = -depthAndClamp
	}
	return (old.Depth-new.Depth)*depthGainScale + and, new.Xors - old.Xors
}

func (depthModel) Improved(before, after xag.Counts) bool {
	if after.AndDepth != before.AndDepth {
		return after.AndDepth < before.AndDepth
	}
	return after.And < before.And
}

func (depthModel) NeedsDepth() bool { return true }

func (depthModel) Better(a, b Impl) bool {
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.Ands != b.Ands {
		return a.Ands < b.Ands
	}
	return a.Xors < b.Xors
}

func (depthModel) CutRank(leafDepths []int) int {
	rank := 0
	for _, d := range leafDepths {
		if d > rank {
			rank = d
		}
	}
	return rank
}
