// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, first-UIP
// conflict analysis with clause learning, exponential VSIDS-style variable
// activities with phase saving, and Luby-sequence restarts.
//
// It is the decision-procedure substrate underneath internal/smt, which
// bit-blasts the finite-domain TRANSIT theory (Bool/Int/PID/Set/Enum) to
// CNF. The paper used Z3 for these queries; on the bounded vocabulary the
// two are interchangeable, and the SAT instances produced by protocol
// synthesis are small (thousands of variables), so no clause-database
// reduction is implemented.
//
// Every clause, problem and learnt alike, lives in one []Lit arena and is
// addressed by an int32 ref; reasons and watch lists hold refs, and
// propagation compacts each watch list in place. Reset empties a solver
// but keeps that storage, so a solver reused across queries (internal/smt
// pools them) stops allocating once it has seen its largest query.
package sat

import (
	"fmt"
	"math"
)

// Lit is a literal: variable index v encodes to 2v (positive) or 2v+1
// (negated).
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Not returns the negation of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

const litUndef = Lit(-2)

// Status is a solver verdict.
type Status int

const (
	// Unknown means the conflict budget was exhausted.
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref addresses a clause in the solver's arena: arena[r] holds the
// clause's length and arena[r+1:r+1+length] its literals.
type cref int32

// crefUndef is the reason of decisions and level-0 units.
const crefUndef cref = -1

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New. Variables are created with NewVar and clauses added with AddClause
// before calling Solve. Solvers are not safe for concurrent use.
type Solver struct {
	ok       bool     // false once an empty clause is derived at level 0
	arena    []Lit    // every clause of two or more literals, by cref
	watches  [][]cref // indexed by Lit: the clauses watching its negation
	assigns  []lbool  // indexed by var
	phase    []bool   // saved polarity per var
	level    []int    // decision level per var
	reason   []cref   // antecedent clause per var
	trail    []Lit
	trailLim []int // trail index per decision level
	qhead    int
	activity []float64
	varInc   float64
	order    *varHeap
	seen     []bool // scratch for analyze
	tmp      []Lit  // scratch: AddClause's normalised clause, analyze's learnt one

	assumptions []Lit // current Solve call's assumptions
	budgetEnd   int64 // Stats.Conflicts bound for the current Solve; 0 = none

	// Stats counts solver work; useful for benchmarks and debugging.
	Stats struct {
		Conflicts        int64
		Decisions        int64
		Propagations     int64
		Learnt           int64
		Restarts         int64
		AssumptionSolves int64
	}

	// MaxConflicts bounds each Solve call; 0 means unlimited. The budget is
	// per call — incremental reuse resets it — and when exceeded, Solve
	// returns Unknown.
	MaxConflicts int64

	// Interrupt, when non-nil, is polled periodically during search; once
	// it is closed, Solve returns Unknown at the next poll. It is the
	// cancellation hook used by internal/smt to honor context deadlines.
	Interrupt <-chan struct{}
}

// New creates an empty solver.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1.0}
	s.order = &varHeap{act: &s.activity}
	return s
}

// Reset returns the solver to the state New gives it: no variables or
// clauses, zero Stats, no MaxConflicts and no Interrupt. It keeps the
// capacity of the arena, the watch lists and the per-variable slices, so
// the search after Reset is the one a New solver makes, without the
// allocations.
func (s *Solver) Reset() {
	order := s.order
	order.heap, order.indices = order.heap[:0], order.indices[:0]
	*s = Solver{
		ok:       true,
		arena:    s.arena[:0],
		watches:  s.watches[:0],
		assigns:  s.assigns[:0],
		phase:    s.phase[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		activity: s.activity[:0],
		varInc:   1.0,
		order:    order,
		seen:     s.seen[:0],
		tmp:      s.tmp[:0],
	}
}

// NumVars reports the number of variables created.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// A Reset solver: reuse the lists the earlier variables had.
		s.watches = s.watches[:n+2]
		s.watches[n], s.watches[n+1] = s.watches[n][:0], s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.push(v)
	return v
}

func (s *Solver) value(l Lit) lbool {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a clause over existing variables. It returns false if the
// solver is already in an unsatisfiable state (now or as a result of this
// clause). Duplicate literals are removed and tautologies are ignored.
// Clauses must be added at decision level 0, i.e. before Solve or after it
// returns.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Incremental use: drop any model state from a previous Solve.
	s.cancelUntil(0)
	// Normalize: sort-free dedup and tautology/false-literal removal, into
	// the scratch buffer (sized up front, so out never reallocates).
	if cap(s.tmp) < len(lits) {
		s.tmp = make([]Lit, 0, len(lits))
	}
	out := s.tmp[:0]
	for _, l := range lits {
		if l.Var() >= s.NumVars() || l < 0 {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch s.value(l) {
		case lTrue:
			return true // clause already satisfied at level 0
		case lFalse:
			continue // drop falsified literal
		}
		dup, taut := false, false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.enqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	s.watch(s.alloc(out))
	return true
}

// alloc copies a clause into the arena and returns its ref.
func (s *Solver) alloc(lits []Lit) cref {
	r := len(s.arena)
	if r+1+len(lits) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 literals")
	}
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	return cref(r)
}

// lits returns the literals of clause r, aliasing the arena: writes
// reorder the stored clause.
func (s *Solver) lits(r cref) []Lit {
	n := int(s.arena[r])
	return s.arena[r+1 : int(r)+1+n]
}

func (s *Solver) watch(r cref) {
	c := s.lits(r)
	s.watches[c[0].Not()] = append(s.watches[c[0].Not()], r)
	s.watches[c[1].Not()] = append(s.watches[c[1].Not()], r)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, from cref) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// crefUndef. Each watch list is compacted in place (i reads, j writes), so
// the watchers that stay keep their order. A moved watch never lands on
// the list being compacted: its new literal is not false, and that list
// holds the watchers of ¬p, which is.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			r := ws[i]
			c := s.lits(r)
			// Ensure the falsified literal (¬p) sits at position 1.
			if c[0] == p.Not() {
				c[0], c[1] = c[1], c[0]
			}
			// If the other watch is already true, the clause is fine.
			if s.value(c[0]) == lTrue {
				ws[j] = r
				j++
				continue
			}
			// Search for a new literal to watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1].Not()] = append(s.watches[c[1].Not()], r)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = r
			j++
			if s.value(c[0]) == lFalse {
				// Conflict: keep the remaining watchers and bail.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return r
			}
			s.enqueue(c[0], r)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level. The clause is
// built in the scratch buffer, valid until the next AddClause or analyze.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.tmp[:0], litUndef)
	counter := 0
	p := litUndef
	index := len(s.trail) - 1

	for {
		for _, q := range s.lits(confl) {
			if q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to resolve on, scanning the trail backwards.
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Compute backjump level: highest level among the non-asserting
	// literals, and move such a literal to position 1 for watching.
	bt := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].Var()]; lv > bt {
			bt = lv
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	for _, l := range learnt[1:] {
		s.seen[l.Var()] = false
	}
	s.tmp = learnt
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild(s.NumVars())
	}
	s.order.update(v)
}

const varDecay = 0.95

func (s *Solver) decayActivities() { s.varInc /= varDecay }

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Neg() // phase saving
		s.assigns[v] = lUndef
		s.reason[v] = crefUndef
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar selects the unassigned variable with the highest activity.
func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// luby computes the Luby restart sequence term (1-indexed):
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

const restartBase = 100

// Solve searches for a model of the clause database under the given
// assumptions, if any. It returns Sat, Unsat, or Unknown when MaxConflicts
// is exhausted. After Sat, Model/ValueOf expose the model. Solve may be
// called repeatedly, interleaved with AddClause, for incremental use:
// learned clauses, variable activities, and saved phases carry over between
// calls. An Unsat answer caused by the assumptions (rather than the clause
// database itself) leaves the solver usable: a later call without them
// can still answer Sat.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	for _, l := range assumptions {
		if l.Var() >= s.NumVars() || l < 0 {
			panic(fmt.Sprintf("sat: assumption %v references unknown variable", l))
		}
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat
	}
	s.assumptions = assumptions
	defer func() { s.assumptions = nil }()
	if len(assumptions) > 0 {
		s.Stats.AssumptionSolves++
	}
	// Per-call conflict budget, expressed as a bound on the cumulative
	// counter so a reused solver is not charged for earlier calls' work.
	s.budgetEnd = 0
	if s.MaxConflicts > 0 {
		s.budgetEnd = s.Stats.Conflicts + s.MaxConflicts
	}
	var restartNum int64
	for {
		restartNum++
		budget := luby(restartNum) * restartBase
		st := s.search(budget)
		if st != Unknown {
			return st
		}
		if s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		if s.budgetEnd > 0 && s.Stats.Conflicts >= s.budgetEnd {
			s.cancelUntil(0)
			return Unknown
		}
		s.Stats.Restarts++
	}
}

// interrupted reports whether the Interrupt channel has fired.
func (s *Solver) interrupted() bool {
	if s.Interrupt == nil {
		return false
	}
	select {
	case <-s.Interrupt:
		return true
	default:
		return false
	}
}

// search runs CDCL until a verdict or until the given number of conflicts,
// in which case it returns Unknown (restart).
func (s *Solver) search(conflictBudget int64) Status {
	var conflicts, steps int64
	for {
		steps++
		if steps&1023 == 0 && s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], crefUndef)
			} else {
				r := s.alloc(learnt)
				s.Stats.Learnt++
				s.watch(r)
				s.enqueue(learnt[0], r)
			}
			s.decayActivities()
			if conflictBudget > 0 && conflicts >= conflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.budgetEnd > 0 && s.Stats.Conflicts >= s.budgetEnd {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}
		// No conflict: honor pending assumptions, then decide. Each
		// assumption occupies one leading decision level, so the current
		// level indexes the next pending assumption.
		next := litUndef
		for next == litUndef && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Already implied: open a dummy level to keep the
				// level↔assumption alignment.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				// The database falsifies this assumption: answer Unsat
				// without poisoning the solver (ok stays true).
				s.cancelUntil(0)
				return Unsat
			default:
				next = p
			}
		}
		if next == litUndef {
			v := s.pickBranchVar()
			if v < 0 {
				return Sat // all variables assigned
			}
			s.Stats.Decisions++
			next = MkLit(v, !s.phase[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, crefUndef)
	}
}

// ValueOf reports the model value of a variable after Sat.
func (s *Solver) ValueOf(v int) bool { return s.assigns[v] == lTrue }

// Model returns a copy of the model after Sat.
func (s *Solver) Model() []bool { return s.AppendModel(nil) }

// AppendModel appends the model after Sat, one value per variable, to dst
// and returns the extended slice.
func (s *Solver) AppendModel(dst []bool) []bool {
	for _, a := range s.assigns {
		dst = append(dst, a == lTrue)
	}
	return dst
}

// varHeap is a max-heap of variables ordered by activity, with lazy
// deletion (popped variables may be stale; callers recheck assignment).
type varHeap struct {
	act     *[]float64
	heap    []int
	indices []int // position+1 per var; 0 = absent
}

func (h *varHeap) less(i, j int) bool { return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]] }

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i + 1
	h.indices[h.heap[j]] = j + 1
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) push(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return -1, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] != 0 {
		h.up(h.indices[v] - 1)
	}
}

func (h *varHeap) rebuild(numVars int) {
	h.heap = h.heap[:0]
	for i := range h.indices {
		h.indices[i] = 0
	}
	for v := 0; v < numVars; v++ {
		h.push(v)
	}
}
