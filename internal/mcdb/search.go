package mcdb

import (
	"math/bits"

	"repro/internal/tt"
)

// The exact synthesizer looks for an SLP with k AND steps by depth-first
// search: each step's operands range over the affine span of the basis
// elements chosen so far, and a function is realizable the moment it falls
// into that span. Two ingredients keep the search tractable:
//
//   - span membership is tested against a Gaussian echelon form of the basis
//     (a handful of XORs per test instead of set lookups), and
//   - the last AND gate is never branched on: f needs one more gate iff
//     f ⊕ (l ∧ m) lies in the current span for some operand pair, which is a
//     single quadratic scan ("coset trick").
//
// The search is budgeted; an exhausted budget aborts with "unknown", in
// which case the database falls back to a Davio decomposition. A search that
// completes without finding a circuit proves MC(f) > k.

// echelon maintains a reduced basis of truth tables together with the basis
// masks that generate them. Rows are append-only — each has a unique leading
// bit tracked in byLead — so backtracking is a plain truncation.
type echelon struct {
	rows   []uint64  // reduced vectors, each with a unique leading (highest) bit
	masks  []uint32  // generating mask over the SLP basis for each row
	byLead [65]int32 // index+1 of the row with the given bits.Len, 0 = none
}

// reduce returns the residual of v after elimination and the accumulated
// generator mask.
func (e *echelon) reduce(v uint64) (uint64, uint32) {
	var mask uint32
	for v != 0 {
		i := e.byLead[bits.Len64(v)]
		if i == 0 {
			break
		}
		v ^= e.rows[i-1]
		mask ^= e.masks[i-1]
	}
	return v, mask
}

// reduceRes is reduce without the generator-mask bookkeeping, for the hot
// membership scans.
func (e *echelon) reduceRes(v uint64) uint64 {
	for v != 0 {
		i := e.byLead[bits.Len64(v)]
		if i == 0 {
			break
		}
		v ^= e.rows[i-1]
	}
	return v
}

// insert adds v (with its generator mask) to the span if independent.
// It reports whether the rank grew.
func (e *echelon) insert(v uint64, mask uint32) bool {
	res, acc := e.reduce(v)
	if res == 0 {
		return false
	}
	e.rows = append(e.rows, res)
	e.masks = append(e.masks, mask^acc)
	e.byLead[bits.Len64(res)] = int32(len(e.rows))
	return true
}

// contains reports span membership and, if contained, the generating mask.
func (e *echelon) contains(v uint64) (uint32, bool) {
	res, mask := e.reduce(v)
	return mask, res == 0
}

func (e *echelon) snapshot() int { return len(e.rows) }

func (e *echelon) rollback(n int) {
	for i := n; i < len(e.rows); i++ {
		e.byLead[bits.Len64(e.rows[i])] = 0
	}
	e.rows = e.rows[:n]
	e.masks = e.masks[:n]
}

type searcher struct {
	n      int
	f      uint64 // target truth table bits
	budget int    // remaining operand-pair evaluations
	abort  bool

	basis []uint64 // SLP basis element tables: 1, x_i…, a_j…
	span  []uint64 // all XOR combinations of basis, in mask order
	ech   echelon
	steps []Step

	outMask uint32
	found   bool
}

func newSearcher(f tt.T, budget int) *searcher {
	s := &searcher{n: f.N, f: f.Bits, budget: budget}
	s.basis = append(s.basis, tt.Const1(f.N).Bits)
	for i := 0; i < f.N; i++ {
		s.basis = append(s.basis, tt.Var(i, f.N).Bits)
	}
	for i, b := range s.basis {
		s.ech.insert(b, 1<<uint(i))
	}
	s.rebuildSpan()
	return s
}

// rebuildSpan recomputes the explicit span array (index = basis mask).
func (s *searcher) rebuildSpan() {
	dim := len(s.basis)
	span := make([]uint64, 1<<uint(dim))
	for m := 1; m < len(span); m++ {
		i := bits.TrailingZeros32(uint32(m))
		span[m] = span[m&(m-1)] ^ s.basis[i]
	}
	s.span = span
}

// run tries to realize f with at most k AND steps. It returns found; when it
// returns false with s.abort unset, MC(f) > k is proven.
func (s *searcher) run(k int) bool {
	if mask, ok := s.ech.contains(s.f); ok {
		s.outMask = mask
		s.found = true
		return true
	}
	if k == 0 {
		return false
	}
	return s.dfs(k)
}

// spend consumes one operand-pair evaluation and reports whether the search
// must abort because its budget is exhausted.
func (s *searcher) spend() bool {
	s.budget--
	if s.budget <= 0 {
		s.abort = true
		return true
	}
	return false
}

func (s *searcher) dfs(remaining int) bool {
	if remaining == 1 {
		return s.lastGate()
	}
	// Enumerate distinct, span-independent products as the next gate.
	seen := make(map[uint64]bool)
	for i := 1; i < len(s.span); i++ {
		for j := i + 1; j < len(s.span); j++ {
			if s.spend() {
				return false
			}
			v := s.span[i] & s.span[j]
			if seen[v] {
				continue
			}
			seen[v] = true
			if _, in := s.ech.contains(v); in {
				// A gate whose output is already affine-reachable can be
				// removed from any circuit, so optimal circuits never use
				// one.
				continue
			}
			if s.tryGate(v, uint32(i), uint32(j), remaining) {
				return true
			}
			if s.abort {
				return false
			}
		}
	}
	return false
}

// tryGate pushes gate v = span[i] ∧ span[j], recurses, and pops on failure.
func (s *searcher) tryGate(v uint64, li, mj uint32, remaining int) bool {
	gateBit := uint32(1) << uint(len(s.basis))
	s.steps = append(s.steps, Step{L: li, M: mj})
	s.basis = append(s.basis, v)
	mark := s.ech.snapshot()
	s.ech.insert(v, gateBit)
	oldSpan := s.span
	s.rebuildSpan()

	if mask, ok := s.ech.contains(s.f); ok {
		s.outMask = mask
		s.found = true
		return true
	}
	if s.dfs(remaining - 1) {
		return true
	}

	s.span = oldSpan
	s.ech.rollback(mark)
	s.basis = s.basis[:len(s.basis)-1]
	s.steps = s.steps[:len(s.steps)-1]
	return false
}

// lastGate applies the coset trick: f is one AND away iff
// f ⊕ (span[i] ∧ span[j]) is in the span for some pair. Because reduction is
// linear, that is equivalent to residual(v) == residual(f), with residual(f)
// computed once.
func (s *searcher) lastGate() bool {
	gateBit := uint32(1) << uint(len(s.basis))
	rf := s.ech.reduceRes(s.f)
	for i := 1; i < len(s.span); i++ {
		si := s.span[i]
		for j := i + 1; j < len(s.span); j++ {
			if s.spend() {
				return false
			}
			v := si & s.span[j]
			if s.ech.reduceRes(v) != rf {
				continue
			}
			mask, ok := s.ech.contains(s.f ^ v)
			if !ok {
				continue // cannot happen; kept as a safety net
			}
			s.steps = append(s.steps, Step{L: uint32(i), M: uint32(j)})
			s.outMask = mask | gateBit
			s.found = true
			return true
		}
	}
	return false
}

// ExactSearch synthesizes an SLP for f with at most maxK AND steps. It
// returns the entry (nil if none found within maxK) and whether the budget
// aborted the search. A returned entry is always proven minimal (Exact): the
// search gives up at the first aborted level, so every level below the one
// that succeeded was exhausted.
//
// The search starts at the degree lower bound MC(f) ≥ deg(f) − 1 (Boyar,
// Peralta & Pochuev): levels below it cannot succeed, and a circuit found
// exactly at the bound is proven minimal without exhausting smaller levels.
// Random cut functions of five or six variables almost always have full
// degree, which makes this bound the difference between an instant answer
// and a budget-devouring exhaustive proof.
func ExactSearch(f tt.T, maxK, budget int) (entry *Entry, aborted bool) {
	for k := max(f.Degree()-1, 0); k <= maxK; k++ {
		s := newSearcher(f, budget)
		if s.run(k) {
			return &Entry{
				N:     f.N,
				F:     f,
				Steps: append([]Step(nil), s.steps...),
				Out:   s.outMask,
				Exact: true,
			}, false
		}
		if s.abort {
			return nil, true
		}
	}
	return nil, false
}
