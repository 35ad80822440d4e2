package mcdb

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/sat"
	"repro/internal/tt"
)

// This file implements the SAT-based exact-synthesis refiner (ROADMAP item
// 1, after Soeken's "Determining the Multiplicative Complexity of Boolean
// Functions using SAT"). The exhaustive search in search.go proves
// optimality only up to MaxExactK AND gates within its operand budget;
// harder classes fall back to Davio decomposition and silently cap every
// downstream AND count. The refiner revisits those entries offline: it
// encodes "∃ an SLP with exactly r AND steps computing f" as CNF, walks r
// downward from the stored MC, decodes each satisfying model into a circuit
// that must pass the same entryFromPersisted validation gate as any on-disk
// record, and hot-swaps improvements into the warm DB. When r−1 comes back
// UNSAT within the conflict budget — or the degree lower bound
// MC(f) ≥ deg(f)−1 closes the gap — the entry is stamped proven-optimal
// (Exact) and marked Refined so the proof survives snapshot/journal cycles.

// DefaultRefineBudget is the per-SAT-query conflict budget used when
// RefineOptions.Budget is unset. It is enough to prove optimality for every
// class of up to four variables and for most five-variable classes, while
// keeping a single query well under a second.
const DefaultRefineBudget = 20000

// maxRefineSteps bounds the CNF size: entries with more AND steps than this
// are skipped (the encoding grows with r·2ⁿ and such entries are far from
// provable within any reasonable budget anyway).
const maxRefineSteps = 12

// RefineOptions configures one DB.Refine pass.
type RefineOptions struct {
	// Budget is the conflict budget per SAT query (≤0: DefaultRefineBudget).
	Budget int64
	// WorstN, when positive, refines only the N candidates with the widest
	// optimality gap (stored MC minus the degree lower bound).
	WorstN int
	// Reprove includes entries already stamped Exact, re-deriving their
	// optimality proof with the SAT backend. The differential tests use it
	// to cross-check the two synthesis backends against each other: any
	// "improvement" the solver finds below an exhaustive-search proof is an
	// inconsistency and shows up as Improved > 0.
	Reprove bool
	// MaxSteps skips entries with more AND steps (≤0: maxRefineSteps).
	MaxSteps int
}

// RefineReport summarizes one DB.Refine pass.
type RefineReport struct {
	Candidates int `json:"candidates"` // entries eligible for refinement
	Attempted  int `json:"attempted"`  // entries actually worked on
	Improved   int `json:"improved"`   // entries replaced by a smaller circuit
	Proven     int `json:"proven"`     // entries stamped proven-optimal
	Unknown    int `json:"unknown"`    // entries left unproven (budget or ctx expired)
	Rejected   int `json:"rejected"`   // decoded models the validation gate refused
	AndsSaved  int `json:"ands_saved"` // total AND gates removed
}

// Refine runs one SAT-based refinement pass over the warm database. It
// never holds db.mu while solving, so lookups and synthesis proceed
// concurrently; improved circuits are re-verified and merged through the
// same Pareto-front insertion as every other entry. The pass stops early
// when ctx is cancelled.
func (db *DB) Refine(ctx context.Context, opts RefineOptions) RefineReport {
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultRefineBudget
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 || maxSteps > maxRefineSteps {
		maxSteps = maxRefineSteps
	}
	cands := db.refineCandidates(opts.Reprove, maxSteps, opts.WorstN)
	rep := RefineReport{Candidates: len(cands)}
	for _, e := range cands {
		if ctx.Err() != nil {
			break
		}
		rep.Attempted++
		db.stats.refineAttempts.Add(1)
		out := db.refineOne(ctx, e, budget)
		if out.improved {
			rep.Improved++
			rep.AndsSaved += out.saved
			db.stats.refineImproved.Add(1)
			db.stats.refineAndsSaved.Add(int64(out.saved))
		}
		if out.proven {
			rep.Proven++
			db.stats.refineProven.Add(1)
		}
		if out.unknown {
			rep.Unknown++
			db.stats.refineUnknown.Add(1)
		}
		if out.rejected {
			rep.Rejected++
			db.stats.refineRejected.Add(1)
		}
	}
	return rep
}

// refineCandidates snapshots the refinable front heads: non-affine entries
// within the step bound, excluding proven ones unless reprove is set. The
// order is deterministic — widest optimality gap first (those stand to gain
// the most), then fewer variables (cheaper queries), then function bits.
func (db *DB) refineCandidates(reprove bool, maxSteps, worstN int) []*Entry {
	db.mu.Lock()
	var out []*Entry
	for _, list := range db.entries {
		e := list[0]
		if e.MC() == 0 || e.MC() > maxSteps {
			continue // affine entries are optimal by construction
		}
		if e.Exact && !reprove {
			continue
		}
		out = append(out, e)
	}
	db.mu.Unlock()
	gap := func(e *Entry) int { return e.MC() - degreeBound(e.F) }
	sort.Slice(out, func(i, j int) bool {
		if g1, g2 := gap(out[i]), gap(out[j]); g1 != g2 {
			return g1 > g2
		}
		if out[i].N != out[j].N {
			return out[i].N < out[j].N
		}
		return out[i].F.Bits < out[j].F.Bits
	})
	if worstN > 0 && len(out) > worstN {
		out = out[:worstN]
	}
	return out
}

// degreeBound returns the multiplicative-complexity lower bound
// MC(f) ≥ deg(f)−1 (Schnorr; Boyar–Peralta), clamped at zero.
func degreeBound(f tt.T) int {
	if lb := f.Degree() - 1; lb > 0 {
		return lb
	}
	return 0
}

type refineOutcome struct {
	improved bool
	proven   bool
	unknown  bool
	rejected bool
	saved    int
}

// refineOne walks one entry's AND count downward. Every SAT model is
// decoded and re-verified through the entryFromPersisted gate before it can
// replace the current circuit; an UNSAT answer at r−1 (or reaching the
// degree bound) proves optimality. Unknown answers stop the walk without a
// proof — whatever improvement was found so far is still kept.
func (db *DB) refineOne(ctx context.Context, e *Entry, budget int64) refineOutcome {
	var out refineOutcome
	f := e.F
	lb := degreeBound(f)
	cur := e
	for cur.MC() > lb {
		enc := newSLPEncoder(f, cur.MC()-1)
		switch enc.s.Solve(ctx, budget) {
		case sat.Sat:
			model := append([]bool(nil), enc.s.Model()...)
			// Fault-injection point: tests corrupt the decoded model here to
			// prove the validation gate quarantines bad circuits.
			faultinject.Inject(faultinject.PointRefineModel, model)
			ne, err := enc.decode(model)
			if err != nil {
				out.rejected = true
				return out
			}
			ne.Refined = true
			out.saved += cur.MC() - ne.MC()
			out.improved = true
			cur = ne
			continue
		case sat.Unsat:
			out.proven = true
		case sat.Unknown:
			out.unknown = true
		}
		break
	}
	if cur.MC() == lb {
		// The degree bound meets the circuit: optimal without a SAT proof.
		out.proven, out.unknown = true, false
	}
	if out.improved {
		cur.Exact = out.proven
		if !db.adoptRefined(cur) {
			// Lost a race against a concurrent insert of an equal-or-better
			// circuit; nothing to record.
			out.improved = false
			out.saved = 0
		}
	} else if out.proven && (!e.Exact || !e.Refined) {
		// Same circuit, stronger provenance: re-admit a copy carrying the
		// proof bits so the stamp reaches the journal and the next snapshot.
		cp := *e
		cp.Exact = true
		cp.Refined = true
		db.adoptRefined(&cp)
	}
	return out
}

// adoptRefined re-verifies a refined circuit and merges it into its
// function's Pareto front under db.mu, making it visible to concurrent
// lookups and to the Store's journal hook.
func (db *DB) adoptRefined(e *Entry) bool {
	if err := e.Verify(); err != nil {
		// Unreachable if the decode gate did its job; never store it.
		return false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.addEntryLocked(e)
}

// slpEncoder builds the CNF for "∃ an SLP with exactly r AND steps
// computing f" over the basis [1, x_0..x_{n-1}, a_0..a_{r-1}] of slp.go.
//
// Variables: selL[t][i] / selM[t][i] select basis element i into the left /
// right operand mask of step t (the growing prefix of the basis visible to
// that step); selOut[i] selects into the affine output mask. For every
// minterm m, auxiliary variables carry each step's output value through a
// Tseitin XOR chain per operand and one AND gadget per step, and a unit
// clause pins the output parity to f(m).
//
// Symmetry breaking (all satisfiability-preserving per step count, see
// DESIGN.md §15): operand masks are non-empty, every step output is used by
// a later operand or the output mask, and operand masks are lexicographically
// ordered L ≤ M.
type slpEncoder struct {
	n, r   int
	f      tt.T
	s      *sat.Solver
	selL   [][]int // [t][i], i over the 1+n+t basis elements visible to step t
	selM   [][]int
	selOut []int // [i] over the full 1+n+r basis
}

// newSLPEncoder encodes f with exactly r steps. r must keep the basis mask
// within 32 bits (guaranteed by maxRefineSteps ≤ 31−n for n ≤ tt.MaxVars).
func newSLPEncoder(f tt.T, r int) *slpEncoder {
	n := f.N
	e := &slpEncoder{n: n, r: r, f: f, s: sat.New()}
	newVars := func(k int) []int {
		vs := make([]int, k)
		for i := range vs {
			vs[i] = e.s.NewVar()
		}
		return vs
	}
	e.selL = make([][]int, r)
	e.selM = make([][]int, r)
	for t := 0; t < r; t++ {
		e.selL[t] = newVars(1 + n + t)
		e.selM[t] = newVars(1 + n + t)
	}
	e.selOut = newVars(1 + n + r)

	for t := 0; t < r; t++ {
		e.addNonEmpty(e.selL[t])
		e.addNonEmpty(e.selM[t])
		e.addLiveness(t)
		e.addLexOrder(e.selL[t], e.selM[t])
	}

	// Semantics: one value ladder per minterm.
	av := make([][]sat.Lit, r)
	for t := range av {
		av[t] = make([]sat.Lit, 1<<uint(n))
	}
	for m := 0; m < 1<<uint(n); m++ {
		for t := 0; t < r; t++ {
			lv := e.operandParity(e.selL[t], av, m)
			mv := e.operandParity(e.selM[t], av, m)
			av[t][m] = e.and(lv, mv)
		}
		ov := e.operandParity(e.selOut, av, m)
		if f.Bits>>uint(m)&1 == 1 {
			e.s.AddClause(ov)
		} else {
			e.s.AddClause(ov.Not())
		}
	}
	return e
}

// addNonEmpty forbids the all-zero operand mask (a zero operand makes the
// step constant 0; any such circuit rewrites to one with non-empty masks at
// the same step count).
func (e *slpEncoder) addNonEmpty(sel []int) {
	lits := make([]sat.Lit, len(sel))
	for i, v := range sel {
		lits[i] = sat.Pos(v)
	}
	e.s.AddClause(lits...)
}

// addLiveness requires step t's output to be selected by a later operand or
// by the output mask. Dead steps can always be re-packed into live padding
// (gᵢ₊₁ = gᵢ ∧ 1 chains absorbed by the output mask), so this preserves
// satisfiability at every step count while pruning heavily.
func (e *slpEncoder) addLiveness(t int) {
	idx := 1 + e.n + t
	var lits []sat.Lit
	for u := t + 1; u < e.r; u++ {
		lits = append(lits, sat.Pos(e.selL[u][idx]), sat.Pos(e.selM[u][idx]))
	}
	lits = append(lits, sat.Pos(e.selOut[idx]))
	e.s.AddClause(lits...)
}

// addLexOrder enforces L ≤ M comparing selector bits from the highest basis
// index down, via an equal-prefix chain. AND is commutative, so one of the
// two operand orders always survives.
func (e *slpEncoder) addLexOrder(selL, selM []int) {
	s := e.s
	eqAbove := sat.Pos(s.NewVar())
	s.AddClause(eqAbove) // vacuously equal above the top bit
	for k := len(selL) - 1; k >= 0; k-- {
		l, m := sat.Pos(selL[k]), sat.Pos(selM[k])
		// While the prefix is equal, L may not have a 1 where M has a 0.
		s.AddClause(eqAbove.Not(), l.Not(), m)
		if k == 0 {
			break
		}
		eq := sat.Pos(s.NewVar())
		// Prefix stays equal when this bit matches (either polarity).
		s.AddClause(eq, eqAbove.Not(), l, m)
		s.AddClause(eq, eqAbove.Not(), l.Not(), m.Not())
		eqAbove = eq
	}
}

// operandParity returns a literal equal to the GF(2) sum that the selector
// set sel contributes on minterm m: the constant basis element is 1 on every
// minterm, input x_i contributes on minterms with bit i set, and step
// outputs contribute their (selector ∧ value) product. The constant term
// makes the chain non-empty for every operand.
func (e *slpEncoder) operandParity(sel []int, av [][]sat.Lit, m int) sat.Lit {
	cur := sat.Pos(sel[0]) // basis element 0: the constant 1
	for i := 1; i < len(sel); i++ {
		var term sat.Lit
		if i <= e.n {
			if m>>uint(i-1)&1 == 0 {
				continue // x_{i-1} is 0 on this minterm: no contribution
			}
			term = sat.Pos(sel[i])
		} else {
			term = e.and(sat.Pos(sel[i]), av[i-1-e.n][m])
		}
		cur = e.xor(cur, term)
	}
	return cur
}

// and returns a fresh literal constrained to a ∧ b.
func (e *slpEncoder) and(a, b sat.Lit) sat.Lit {
	x := sat.Pos(e.s.NewVar())
	e.s.AddClause(x.Not(), a)
	e.s.AddClause(x.Not(), b)
	e.s.AddClause(x, a.Not(), b.Not())
	return x
}

// xor returns a fresh literal constrained to a ⊕ b.
func (e *slpEncoder) xor(a, b sat.Lit) sat.Lit {
	x := sat.Pos(e.s.NewVar())
	e.s.AddClause(x.Not(), a, b)
	e.s.AddClause(x.Not(), a.Not(), b.Not())
	e.s.AddClause(x, a.Not(), b)
	e.s.AddClause(x, a, b.Not())
	return x
}

// decode turns a satisfying model into a verified entry. It is the refiner's
// admission gate: selector assignments become basis masks, and the resulting
// circuit goes through entryFromPersisted — the same bounds/Validate/Verify
// gate every on-disk record passes — so a wrong model (or a corrupted one;
// see PointRefineModel) is rejected, never admitted. decode never panics,
// whatever the model contents or length.
func (e *slpEncoder) decode(model []bool) (*Entry, error) {
	bit := func(v int) uint32 {
		if v < len(model) && model[v] {
			return 1
		}
		return 0
	}
	mask := func(sel []int) uint32 {
		var out uint32
		for i, v := range sel {
			out |= bit(v) << uint(i)
		}
		return out
	}
	steps := make([]Step, e.r)
	for t := 0; t < e.r; t++ {
		steps[t] = Step{L: mask(e.selL[t]), M: mask(e.selM[t])}
	}
	pe := persistedEntry{N: e.n, FBits: e.f.Bits, Steps: steps, Out: mask(e.selOut)}
	ne, err := entryFromPersisted(pe)
	if err != nil {
		return nil, fmt.Errorf("refine: model decode: %v", err)
	}
	return ne, nil
}
