// Package sim provides combinational equivalence checking between XAGs:
// exhaustive for small inputs, bit-parallel random simulation for large
// ones. The optimizer's correctness tests and the table harness use it to
// guarantee that no rewriting result is ever reported without a functional
// check against the original network.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/tt"
	"repro/internal/xag"
)

// Counterexample describes a mismatch found between two networks.
type Counterexample struct {
	Inputs []bool
	PO     int
}

func (c *Counterexample) Error() string {
	return fmt.Sprintf("sim: networks differ at PO %d (inputs %v)", c.PO, c.Inputs)
}

// checkInterface verifies both networks have the same PI/PO counts.
func checkInterface(a, b *xag.Network) error {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return fmt.Errorf("sim: interface mismatch: %d/%d PIs, %d/%d POs",
			a.NumPIs(), b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	return nil
}

// miter evaluates two networks with the same interface on shared stimulus,
// each from one evaluator built once per check.
type miter struct {
	a, b *xag.Evaluator
	pos  int
}

func newMiter(a, b *xag.Network) miter {
	return miter{a: xag.NewEvaluator(a), b: xag.NewEvaluator(b), pos: a.NumPOs()}
}

// check runs both networks on in and, at the first PO whose words differ
// in a bit of valid, returns the counterexample of the lowest such bit.
func (m *miter) check(in []uint64, valid uint64) *Counterexample {
	m.a.Run(in)
	m.b.Run(in)
	for po := 0; po < m.pos; po++ {
		if diff := (m.a.Output(po) ^ m.b.Output(po)) & valid; diff != 0 {
			k := bits.TrailingZeros64(diff)
			inputs := make([]bool, len(in))
			for i := range inputs {
				inputs[i] = in[i]>>uint(k)&1 == 1
			}
			return &Counterexample{Inputs: inputs, PO: po}
		}
	}
	return nil
}

// ExhaustiveEqual checks equivalence over all input assignments. It is
// limited to 20 primary inputs (2^20 patterns, packed 64 per word).
func ExhaustiveEqual(a, b *xag.Network) error {
	if err := checkInterface(a, b); err != nil {
		return err
	}
	n := a.NumPIs()
	if n > 20 {
		return fmt.Errorf("sim: %d inputs too many for exhaustive check", n)
	}
	// Bit k of a batch holds assignment base+k, base a multiple of 64: a
	// variable below six takes its six-variable projection table, and a
	// higher variable i is constant across the batch, bit i of base. With
	// fewer than six inputs the batch repeats the 2^n assignments; valid
	// keeps only the first copy.
	in := make([]uint64, n)
	for i := 0; i < n && i < tt.MaxVars; i++ {
		in[i] = tt.Var(i, tt.MaxVars).Bits
	}
	valid := tt.Mask(n)
	m := newMiter(a, b)
	for base := 0; base < 1<<uint(n); base += 64 {
		for i := tt.MaxVars; i < n; i++ {
			in[i] = -uint64(base >> uint(i) & 1)
		}
		if ce := m.check(in, valid); ce != nil {
			return ce
		}
	}
	return nil
}

// RandomEqual checks equivalence on rounds×64 random patterns with a
// deterministic xorshift generator. It can only ever prove inequivalence;
// use it as a strong smoke test for circuits too wide for ExhaustiveEqual.
func RandomEqual(a, b *xag.Network, rounds int, seed uint64) error {
	if err := checkInterface(a, b); err != nil {
		return err
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	in := make([]uint64, a.NumPIs())
	m := newMiter(a, b)
	for r := 0; r < rounds; r++ {
		for i := range in {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			in[i] = seed
		}
		if ce := m.check(in, ^uint64(0)); ce != nil {
			return ce
		}
	}
	return nil
}

// Equal picks the strongest affordable check: exhaustive when the input
// count permits, otherwise random simulation.
func Equal(a, b *xag.Network, randomRounds int, seed uint64) error {
	if a.NumPIs() <= 16 {
		return ExhaustiveEqual(a, b)
	}
	return RandomEqual(a, b, randomRounds, seed)
}
