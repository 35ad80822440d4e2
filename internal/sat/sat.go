// Package sat implements a small self-contained CDCL satisfiability solver:
// two-watched-literal propagation, first-UIP conflict analysis with
// backjumping, VSIDS-style activity branching, phase saving, geometric
// restarts, and learnt-clause reduction. It exists so that mcdb's offline
// refiner can run exact-synthesis queries ("is there an SLP with r AND
// steps computing f?") with a hard conflict budget and context
// cancellation, without pulling in an external solver dependency.
//
// The solver is deliberately minimal: clauses are added once, up front, and
// Solve is called once per instance. There is no incremental interface, no
// assumptions mechanism, and no preprocessing beyond level-0 simplification
// in AddClause — the refiner builds a fresh Solver per (function, step
// count) query, which keeps the state machine simple enough to audit.
package sat

import "context"

// Lit is a literal: variable index shifted left once, low bit set for
// negation. The zero value is the positive literal of variable 0; use
// Pos/Neg to construct literals and Var/Sign to destructure them.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negated literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 != 0 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is the outcome of a Solve call.
type Status uint8

const (
	// Unknown means the conflict budget or context expired first.
	Unknown Status = iota
	// Sat means a satisfying assignment was found; Model returns it.
	Sat
	// Unsat means the instance was proven unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// lbool is a three-valued assignment: +1 true, -1 false, 0 unassigned.
type lbool int8

const (
	lTrue  lbool = 1
	lFalse lbool = -1
	lUndef lbool = 0
)

type clause struct {
	lits   []Lit
	act    float32
	learnt bool
}

// watcher pairs a watched clause with a blocker literal: if the blocker is
// already true the clause is satisfied and need not be inspected.
type watcher struct {
	c       *clause
	blocker Lit
}

// Stats carries cumulative search counters for observability.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnts      int64
}

// Solver holds one CNF instance. The zero value is not usable; call New.
type Solver struct {
	watches  [][]watcher // indexed by Lit; clauses to inspect when that literal becomes true
	assigns  []lbool     // per variable
	level    []int32     // decision level of each assigned variable
	reason   []*clause   // implying clause of each assigned variable (nil for decisions)
	trail    []Lit
	trailLim []int // trail length at each decision level
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap
	polarity []bool // saved phase: value to try first on decision

	clauses []*clause
	learnts []*clause
	claInc  float32

	seen    []byte // scratch for analyze
	minimal []Lit  // scratch for learnt clause
	toClear []int  // variables whose seen marks need clearing after analyze

	unsat bool // top-level contradiction discovered in AddClause
	model []bool

	stats Stats
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.heap.push(v, s.activity)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// Stats returns cumulative search counters.
func (s *Solver) Stats() Stats { return s.stats }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

// AddClause adds a clause to the instance. Literals over unallocated
// variables cause a panic (an encoding bug, not an input condition). The
// clause is simplified against the current level-0 assignment: satisfied
// clauses are dropped, false literals removed. Returns false once the
// instance is known unsatisfiable at level 0; further calls are no-ops.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Sort-free simplification: drop duplicate and false literals, detect
	// tautologies and satisfied clauses. Quadratic in clause length, but
	// refiner clauses are short (≤ a few dozen literals).
	out := make([]Lit, 0, len(lits))
outer:
	for _, l := range lits {
		if l.Var() >= len(s.assigns) || l < 0 {
			panic("sat: literal over unallocated variable")
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue // false at level 0: drop the literal
		}
		for _, o := range out {
			if o == l {
				continue outer // duplicate
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	w0, w1 := c.lits[0].Not(), c.lits[1].Not()
	s.watches[w0] = append(s.watches[w0], watcher{c, c.lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c, c.lits[0]})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint. It returns the conflicting
// clause, or nil if the assignment is consistent.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; clauses watching ¬p must react
		s.qhead++
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			notP := p.Not()
			if c.lits[0] == notP {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// Invariant: c.lits[1] == notP (false). If the other watch is
			// true the clause is satisfied.
			if first := c.lits[0]; s.value(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, c.lits[0]})
					moved = true
					break
				}
			}
			if moved {
				continue // clause left this watch list
			}
			// Unit or conflicting.
			ws[j] = watcher{c, c.lits[0]}
			j++
			if s.value(c.lits[0]) == lFalse {
				// Conflict: keep the remaining watchers and bail out.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.stats.Propagations++
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

// analyze derives a first-UIP learnt clause from the conflict and returns
// it together with the backjump level. learnt[0] is the asserting literal.
func (s *Solver) analyze(confl *clause) (learnt []Lit, backLevel int) {
	learnt = append(s.minimal[:0], 0) // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(s.decisionLevel())

	// seen marks stay set for every variable touched during resolution and
	// are cleared in one sweep over toClear at the end — the minimization
	// step below depends on resolved-away variables still being marked.
	s.toClear = s.toClear[:0]
	c := confl
	for {
		if c.learnt {
			s.bumpClause(c)
		}
		start := 0
		if p >= 0 {
			start = 1 // lits[0] of a reason clause is the implied literal p
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if s.level[v] >= curLevel {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		pathC--
		if pathC == 0 {
			break
		}
		// seen[p.Var()] stays set: later reason clauses containing p must
		// not re-count it, and the trail walk's index only moves down.
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Cheap self-subsumption: drop literals whose reason clause is fully
	// contained in the seen set (single-level check, no recursion). Sound
	// because antecedents are assigned strictly earlier than the literal
	// they imply, so drop justifications cannot be circular.
	jj := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		if r == nil || !s.redundant(r) {
			learnt[jj] = learnt[i]
			jj++
		}
	}
	learnt = learnt[:jj]

	backLevel = 0
	if len(learnt) > 1 {
		// Move the highest-level literal (other than the asserting one)
		// into slot 1 so the watches stay valid after backjumping.
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLevel = int(s.level[learnt[1].Var()])
	}
	for _, v := range s.toClear {
		s.seen[v] = 0
	}
	s.minimal = learnt[:0]
	out := make([]Lit, len(learnt))
	copy(out, learnt)
	return out, backLevel
}

// redundant reports whether every body literal of reason clause r is either
// assigned at level 0 or already part of the resolution's seen set, making
// the literal r implies redundant in the learnt clause.
func (s *Solver) redundant(r *clause) bool {
	for _, q := range r.lits[1:] {
		if s.level[q.Var()] != 0 && s.seen[q.Var()] == 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = !l.Sign()
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.heap.pushIfAbsent(v, s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

// pickBranch returns the unassigned variable with the highest activity, or
// -1 if every variable is assigned.
func (s *Solver) pickBranch() int {
	for !s.heap.empty() {
		v := s.heap.pop(s.activity)
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// record attaches a learnt clause and enqueues its asserting literal.
func (s *Solver) record(lits []Lit) {
	s.stats.Learnts++
	if len(lits) == 1 {
		s.uncheckedEnqueue(lits[0], nil)
		return
	}
	c := &clause{lits: lits, learnt: true, act: s.claInc}
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.uncheckedEnqueue(lits[0], c)
}

// reduceDB drops the less active half of the learnt clauses. Clauses that
// currently act as reasons and binary clauses are kept.
func (s *Solver) reduceDB() {
	// Partial selection sort would do; learnt DBs here are small enough
	// that a full sort is noise. Sort ascending by activity.
	ls := s.learnts
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].act < ls[j-1].act; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	keep := ls[:0]
	limit := len(ls) / 2
	for i, c := range ls {
		if len(c.lits) == 2 || s.isReason(c) || i >= limit {
			keep = append(keep, c)
			continue
		}
		s.detach(c)
	}
	s.learnts = keep
}

func (s *Solver) isReason(c *clause) bool {
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

func (s *Solver) detach(c *clause) {
	for _, wl := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Solve runs the CDCL loop. budget caps the number of conflicts explored
// (≤0 means unlimited); ctx is polled every few hundred conflicts. When
// either expires, Solve backtracks to level 0 and returns Unknown — the
// solver may be handed to another Solve call with a fresh budget.
func (s *Solver) Solve(ctx context.Context, budget int64) Status {
	if s.unsat {
		return Unsat
	}
	if s.propagate() != nil {
		s.unsat = true
		return Unsat
	}
	start := s.stats.Conflicts
	nextRestart := start + 100
	restartGap := int64(100)
	maxLearnts := int64(len(s.clauses))/2 + 2000
	for {
		if confl := s.propagate(); confl != nil {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			s.record(learnt)
			s.varInc /= 0.95
			s.claInc /= 0.999
			n := s.stats.Conflicts
			if budget > 0 && n-start >= budget {
				s.cancelUntil(0)
				return Unknown
			}
			if ctx != nil && n%256 == 0 {
				select {
				case <-ctx.Done():
					s.cancelUntil(0)
					return Unknown
				default:
				}
			}
			if n >= nextRestart {
				s.stats.Restarts++
				restartGap = restartGap * 3 / 2
				nextRestart = n + restartGap
				s.cancelUntil(0)
			}
			continue
		}
		if int64(len(s.learnts)) > maxLearnts+int64(len(s.trail)) {
			s.reduceDB()
		}
		v := s.pickBranch()
		if v < 0 {
			s.storeModel()
			s.cancelUntil(0)
			return Sat
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		if s.polarity[v] {
			s.uncheckedEnqueue(Pos(v), nil)
		} else {
			s.uncheckedEnqueue(Neg(v), nil)
		}
	}
}

func (s *Solver) storeModel() {
	if cap(s.model) < len(s.assigns) {
		s.model = make([]bool, len(s.assigns))
	}
	s.model = s.model[:len(s.assigns)]
	for v, a := range s.assigns {
		s.model[v] = a == lTrue
	}
}

// Model returns the satisfying assignment found by the last Sat result,
// indexed by variable. The slice is owned by the solver; callers that keep
// it across further Solve calls must copy it. It returns nil if no model
// has been found.
func (s *Solver) Model() []bool { return s.model }

// varHeap is a binary max-heap of variables ordered by activity, with a
// position index for decrease/increase-key updates.
type varHeap struct {
	heap []int
	pos  []int // var → index in heap, -1 when absent
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) push(v int, act []float64) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.pos[v], act)
}

func (h *varHeap) pushIfAbsent(v int, act []float64) { h.push(v, act) }

func (h *varHeap) pop(act []float64) int {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.down(0, act)
	}
	return top
}

func (h *varHeap) update(v int, act []float64) {
	if len(h.pos) <= v || h.pos[v] < 0 {
		return
	}
	h.up(h.pos[v], act)
}

func (h *varHeap) up(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.heap[p]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int, act []float64) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h.heap[c+1]] > act[h.heap[c]] {
			c++
		}
		if act[h.heap[c]] <= act[v] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.pos[v] = i
}
