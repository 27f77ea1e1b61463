// Package smt implements a finite-domain SMT solver for the TRANSIT
// expression theory by bit-blasting to CNF and deciding with the CDCL
// solver in internal/sat.
//
// The paper dispatches its consistency queries ("is ¬C[o := e]
// satisfiable?") to Z3. All TRANSIT types are finite in a given Universe —
// Bool, W-bit Int, PID in [0, numcaches), Set ⊆ PIDs, finite Enums — so the
// same queries are decidable by propositional encoding: every theory
// variable becomes a vector of SAT variables, every Table 1 operation
// becomes a circuit (ripple-carry adders, comparators, popcount, one-hot
// decoders, muxes), and the formula is asserted through Tseitin
// transformation. Models decode back to typed values.
//
// A brute-force reference solver (SolveBrute) enumerates the value domains
// directly; tests cross-validate the two on random formulas.
package smt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/sat"
)

// Status mirrors the SAT solver verdicts.
type Status = sat.Status

// Re-exported verdicts.
const (
	Unknown = sat.Unknown
	Sat     = sat.Sat
	Unsat   = sat.Unsat
)

// Result is the outcome of a satisfiability check. Model is non-nil only
// when Status == Sat and assigns a value to every declared variable.
type Result struct {
	Status Status
	Model  expr.Env
}

// ErrConflictBudget reports a query that exhausted Options.MaxConflicts
// before reaching a verdict. SolveCtx returns Status Unknown instead;
// ValidCtx, which has no Unknown to return, wraps this error, and so do
// the synth callers that turn Unknown into an error.
var ErrConflictBudget = errors.New("smt: conflict budget exhausted")

// Options tunes a query.
type Options struct {
	// MaxConflicts bounds the SAT conflicts of the whole query — the
	// search and every canonicalization probe together; 0 means
	// unlimited. Exhausting it yields Status Unknown.
	MaxConflicts int64
	// Hint biases the canonical model toward the given values: for each
	// hinted variable every bit's preferred polarity is the hint's bit, so
	// the query returns the satisfying assignment closest to the hint
	// (unhinted variables keep the default least-value preference). The
	// model stays a pure function of (formula, hint), which is what lets
	// CEGIS concretize "near the current candidate" deterministically.
	// Hints never affect satisfiability, only model choice.
	Hint expr.Env
}

// Stats reports encoding and solving work for one query.
type Stats struct {
	SATVars          int   // SAT variables in the query's solver
	Clauses          int64 // clauses encoded
	Conflicts        int64
	Decisions        int64
	Propagated       int64
	AssumptionSolves int64 // canonicalization probes (SAT calls under assumptions)
}

// SolveCtx checks satisfiability of a Boolean formula over the given
// typed variables in the universe, and reports the work it did. Every
// free variable of the formula must appear in vars (vars may include
// unused variables; they receive arbitrary model values). The SAT search
// polls the context, and the call fails with the context's error once it
// is cancelled or its deadline passes. One "smt.solve" span brackets the
// query, with an "smt.encode" child for bit-blasting and a "sat.search"
// child for the CDCL run; the metrics registry on the context (when
// present) accumulates query and search counters.
//
// Every call encodes the formula into an empty encoder and SAT solver,
// taken from a pool and emptied again when the call returns: no state
// survives the call, only allocations do. Sat answers carry a canonical
// model: the lexicographically least satisfying assignment, taking
// variables from the highest name to the lowest with each domain in
// expr.ValuesOf order. That is exactly the first assignment SolveBrute's
// odometer visits, so the model is a pure function of the formula —
// independent of encoding layout and search history — and
// cross-validates against the brute-force reference directly.
// Options.Hint shifts the preference toward given values (the model
// closest to the hint), keeping the same purity: the model is then a
// function of (formula, hint).
func SolveCtx(ctx context.Context, u *expr.Universe, vars []*expr.Var, formula expr.Expr, opts Options) (res Result, stats Stats, err error) {
	ctx, span := obs.Start(ctx, "smt.solve", obs.Int("vars", len(vars)))
	start := time.Now()
	defer func() {
		span.SetAttr(obs.Str("status", statusName(res.Status)),
			obs.Int("sat_vars", stats.SATVars),
			obs.Int64("clauses", stats.Clauses),
			obs.Int64("conflicts", stats.Conflicts),
			obs.Int64("decisions", stats.Decisions),
			obs.Int64("propagations", stats.Propagated))
		if err != nil {
			span.SetAttr(obs.Str("error", err.Error()))
		}
		span.End()
		if reg := obs.MetricsFrom(ctx); reg != nil {
			reg.Counter("smt.queries").Inc()
			switch res.Status {
			case Sat:
				reg.Counter("smt.sat").Inc()
			case Unsat:
				reg.Counter("smt.unsat").Inc()
			default:
				reg.Counter("smt.unknown").Inc()
			}
			reg.Counter("smt.sat_vars").Add(int64(stats.SATVars))
			reg.Counter("smt.clauses").Add(stats.Clauses)
			reg.Counter("sat.conflicts").Add(stats.Conflicts)
			reg.Counter("sat.decisions").Add(stats.Decisions)
			reg.Counter("sat.propagations").Add(stats.Propagated)
			reg.Counter("sat.assumption_solves").Add(stats.AssumptionSolves)
			reg.Histogram("smt.solve_ms").Observe(time.Since(start))
		}
	}()
	if formula.Type() != expr.BoolType {
		return Result{}, Stats{}, fmt.Errorf("smt: formula has type %s, want Bool", formula.Type())
	}
	_, encSpan := obs.Start(ctx, "smt.encode")
	enc, err := newEncoder(u, vars)
	if err == nil {
		defer enc.release()
		var root []sat.Lit
		if root, err = enc.encode(formula); err == nil {
			enc.addClause(root[0])
		}
	}
	if enc != nil {
		encSpan.SetAttr(obs.Int("sat_vars", enc.s.NumVars()), obs.Int64("clauses", enc.numClauses))
	}
	encSpan.End()
	if err != nil {
		return Result{}, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, Stats{}, fmt.Errorf("smt: %w", err)
	}

	sv := enc.s
	sv.MaxConflicts = opts.MaxConflicts
	sv.Interrupt = ctx.Done()
	_, satSpan := obs.Start(ctx, "sat.search",
		obs.Int("sat_vars", sv.NumVars()), obs.Int64("clauses", enc.numClauses))
	st := sv.Solve()
	var model expr.Env
	if st == sat.Sat {
		var patterns []uint64
		patterns, st = canonicalize(enc, vars, opts.Hint, opts.MaxConflicts)
		if st == sat.Sat {
			model = make(expr.Env, len(vars))
			for i, v := range vars {
				model[v.Name] = enc.patternValue(v.VT, patterns[i])
			}
		}
	}
	satSpan.SetAttr(obs.Str("status", statusName(st)),
		obs.Int64("conflicts", sv.Stats.Conflicts),
		obs.Int64("decisions", sv.Stats.Decisions),
		obs.Int64("propagations", sv.Stats.Propagations))
	satSpan.End()

	stats = Stats{
		SATVars:          sv.NumVars(),
		Clauses:          enc.numClauses,
		Conflicts:        sv.Stats.Conflicts,
		Decisions:        sv.Stats.Decisions,
		Propagated:       sv.Stats.Propagations,
		AssumptionSolves: sv.Stats.AssumptionSolves,
	}
	if st == sat.Unknown && ctx.Err() != nil {
		return Result{}, stats, fmt.Errorf("smt: %w", ctx.Err())
	}
	return Result{Status: st, Model: model}, stats, nil
}

// statusName renders a verdict for span attributes.
func statusName(s Status) string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ValidCtx reports whether the formula holds for all variable
// valuations: it checks with SolveCtx that the negation is
// unsatisfiable. When the formula is not valid, the returned
// counterexample model falsifies it. Status Unknown from the solver (an
// exhausted Options.MaxConflicts) is reported as an error, since neither
// verdict is established.
func ValidCtx(ctx context.Context, u *expr.Universe, vars []*expr.Var, formula expr.Expr, opts Options) (bool, expr.Env, error) {
	res, _, err := SolveCtx(ctx, u, vars, expr.Not(formula), opts)
	if err != nil {
		return false, nil, err
	}
	switch res.Status {
	case Unsat:
		return true, nil, nil
	case Sat:
		return false, res.Model, nil
	default:
		return false, nil, fmt.Errorf("smt: validity check: %w", ErrConflictBudget)
	}
}

// SolveBrute is a reference satisfiability procedure that enumerates the
// full product of variable domains. It errors when the product exceeds
// maxAssignments. It exists to cross-validate the bit-blasting encoder.
func SolveBrute(u *expr.Universe, vars []*expr.Var, formula expr.Expr, maxAssignments uint64) (Result, error) {
	if formula.Type() != expr.BoolType {
		return Result{}, fmt.Errorf("smt: formula has type %s, want Bool", formula.Type())
	}
	// Deterministic order.
	sorted := append([]*expr.Var(nil), vars...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	total := uint64(1)
	domains := make([][]expr.Value, len(sorted))
	for i, v := range sorted {
		domains[i] = expr.ValuesOf(u, v.VT)
		total *= uint64(len(domains[i]))
		if total > maxAssignments {
			return Result{}, fmt.Errorf("smt: brute-force domain product exceeds %d", maxAssignments)
		}
	}
	idx := make([]int, len(sorted))
	env := make(expr.Env, len(sorted))
	for {
		for i, v := range sorted {
			env[v.Name] = domains[i][idx[i]]
		}
		if formula.Eval(u, env).Bool() {
			return Result{Status: Sat, Model: env.Clone()}, nil
		}
		// Next assignment (odometer).
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(domains[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return Result{Status: Unsat}, nil
		}
	}
}

// canonicalize shrinks the solver's current model to the canonical one
// and returns each var's bit pattern, indexed like vars (valid until the
// encoder's release). Variables are processed from the highest name down,
// each bit from the most significant down, preferring — for hinted
// variables — the hint's bit, and otherwise the polarity that comes first
// in expr.ValuesOf order (0, except the Int sign bit, where the negative
// half precedes). With no hint this is the lexicographically least
// satisfying assignment; with a hint, the satisfying assignment closest
// to it. When the solver's model already agrees with the preferred
// polarity the bit is fixed for free; otherwise a single assumption probe
// decides it — Sat adopts the improved model, Unsat proves every
// remaining model takes the other polarity. With a conflict budget, each
// probe gets what the earlier calls left of it, so the query as a whole
// stays within budget conflicts.
func canonicalize(enc *encoder, vars []*expr.Var, hint expr.Env, budget int64) ([]uint64, sat.Status) {
	enc.order = enc.order[:0]
	for i := range vars {
		enc.order = append(enc.order, i)
	}
	slices.SortFunc(enc.order, func(i, j int) int { return strings.Compare(vars[j].Name, vars[i].Name) })
	sv := enc.s
	enc.fixed = enc.fixed[:0]
	enc.snap = sv.AppendModel(enc.snap[:0])
	if cap(enc.patterns) < len(vars) {
		enc.patterns = make([]uint64, len(vars))
	}
	enc.patterns = enc.patterns[:len(vars)]
	for _, vi := range enc.order {
		v := vars[vi]
		ev := enc.vars[v.Name]
		w := len(ev.bits)
		hintPat, hinted := uint64(0), false
		if hv, ok := hint[v.Name]; ok {
			hintPat, hinted = enc.valuePattern(ev.t, hv)
		}
		var pattern uint64
		for i := w - 1; i >= 0; i-- {
			bit := ev.bits[i]
			// Preferred polarity: the hint's bit, or canonical value order.
			var wantOne bool
			if hinted {
				wantOne = hintPat&(uint64(1)<<uint(i)) != 0
			} else {
				wantOne = v.VT.Kind == expr.KindInt && i == w-1
			}
			prefer := bit.Not()
			if wantOne {
				prefer = bit
			}
			// Current model's polarity for this bit (constant-folded bits
			// alias trueLit and decode like any other literal).
			has := enc.snap[bit.Var()] != bit.Neg()
			if has != wantOne {
				if budget > 0 {
					// The probe gets what the query has left; a left of
					// 0 must not reach the solver, where 0 is unlimited.
					left := budget - sv.Stats.Conflicts
					if left <= 0 {
						return nil, sat.Unknown
					}
					sv.MaxConflicts = left
				}
				switch sv.Solve(append(enc.fixed, prefer)...) {
				case sat.Sat:
					enc.snap = sv.AppendModel(enc.snap[:0])
				case sat.Unsat:
					prefer = prefer.Not()
					wantOne = !wantOne
				default:
					return nil, sat.Unknown
				}
			}
			enc.fixed = append(enc.fixed, prefer)
			if wantOne {
				pattern |= uint64(1) << uint(i)
			}
		}
		enc.patterns[vi] = pattern
	}
	return enc.patterns, sat.Sat
}
