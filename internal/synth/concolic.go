package synth

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/smt"
)

// SolveConcolic implements Algorithm 2: maintain a set of concretizations
// of the concolic examples; propose a candidate with SolveConcrete; check
// the candidate against every concolic example with an SMT query on
// ¬C[o := e]; on failure, extract the witness valuation S, solve for an
// output value k_o that satisfies the post-condition under S, add the
// concretization (S, k_o), and iterate.
func SolveConcolic(p Problem, examples []ConcolicExample, limits Limits) (expr.Expr, Stats, error) {
	return SolveConcolicCtx(context.Background(), p, examples, limits)
}

// SolveConcolicCtx is SolveConcolic under a context: cancellation is
// honored between CEGIS iterations, inside the enumerative search, and
// inside every SMT query, so an in-flight inference stops promptly when
// the context is cancelled or times out. The context also carries the
// observability plumbing: a "synth.cegis" span brackets the call with
// one "synth.iteration" child per CEGIS round, and the metrics registry
// (when present) accumulates the solve counters. Every SMT query is a
// one-shot smt.SolveStatsCtx call; no query sees another's state.
func SolveConcolicCtx(ctx context.Context, p Problem, examples []ConcolicExample, limits Limits) (expr.Expr, Stats, error) {
	limits = limits.withDefaults()
	stats := Stats{}
	start := time.Now()
	deadline := deadlineOf(limits)
	ctx, span := obs.Start(ctx, "synth.cegis", obs.Int("examples", len(examples)))
	defer func() {
		stats.Elapsed = time.Since(start)
		span.SetAttr(obs.Int("iterations", stats.Iterations),
			obs.Int("smt_queries", stats.SMTQueries),
			obs.Int64("candidates", stats.Concrete.Enumerated))
		span.End()
		if reg := obs.MetricsFrom(ctx); reg != nil {
			reg.Counter("synth.solves").Inc()
			reg.Counter("synth.cegis_iterations").Add(int64(stats.Iterations))
			reg.Counter("synth.candidates").Add(stats.Concrete.Enumerated)
			reg.Counter("synth.kept").Add(stats.Concrete.Kept)
			reg.Histogram("synth.solve_ms").Observe(stats.Elapsed)
		}
	}()

	if err := p.validate(); err != nil {
		return nil, stats, err
	}
	for i, c := range examples {
		if c.Pre.Type() != expr.BoolType || c.Post.Type() != expr.BoolType {
			return nil, stats, fmt.Errorf("synth: concolic example %d is not Boolean", i)
		}
	}
	be := newBackend(p, examples, smt.Options{MaxConflicts: limits.SMTConflicts})
	sc := newSchema(p)

	var concrete []ConcreteExample
	var bk *bank
	for iter := 1; iter <= limits.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("synth: CEGIS aborted: %w", err)
		}
		if expired(deadline) {
			return nil, stats, fmt.Errorf("%w (%v, before round %d)", ErrTimeout, limits.Timeout, iter)
		}
		stats.Iterations = iter
		candidate, consistent, err := cegisIteration(ctx, sc, p, examples, &concrete, limits, deadline, be, &stats, iter, &bk)
		if err != nil {
			// An exhausted search may be hiding an impossible hole; the
			// atlas check upgrades the error to ErrUnrealizable when it
			// can prove so, telling the caller larger limits cannot help.
			// A timed-out call has no time left to spend on it.
			if errors.Is(err, ErrNoExpression) && !errors.Is(err, ErrTimeout) {
				if uerr := checkUnrealizable(ctx, p, examples, limits, deadline, &stats); uerr != nil {
					return nil, stats, uerr
				}
			}
			return nil, stats, err
		}
		if consistent {
			return candidate, stats, nil
		}
	}
	if uerr := checkUnrealizable(ctx, p, examples, limits, deadline, &stats); uerr != nil {
		return nil, stats, uerr
	}
	return nil, stats, fmt.Errorf("%w (%d rounds)", ErrIterBudget, limits.MaxIters)
}

// cegisIteration runs one round of Algorithm 2's loop under its own
// "synth.iteration" span: propose with SolveConcrete — resuming the
// previous round's expression bank when one is available — check each
// concolic example, and on failure concretize the witness into a new
// example.
func cegisIteration(ctx context.Context, sc *schema, p Problem, examples []ConcolicExample,
	concrete *[]ConcreteExample, limits Limits, deadline time.Time, be *smtBackend,
	stats *Stats, iter int, bk **bank) (candidate expr.Expr, consistent bool, err error) {
	ctx, span := obs.Start(ctx, "synth.iteration", obs.Int("iteration", iter))
	if span != nil {
		// Spans export only on close, so a long round is invisible to a
		// live attacher; this instant mark is the "CEGIS is now on round
		// N" gauge for /runs and the flight recorder.
		span.Mark("synth.round", obs.Int("iteration", iter),
			obs.Int("concrete_examples", len(*concrete)))
	}
	var rec IterRecord
	defer func() {
		span.SetAttr(obs.Bool("consistent", consistent))
		if candidate != nil {
			span.SetAttr(obs.Str("candidate", rec.Candidate))
		}
		span.End()
	}()

	bankable := !limits.NoBankReuse && !limits.NoPrune
	candidate, cstats, nbk, resumed, err := solveConcrete(ctx, sc, p, *concrete, limits, deadline, *bk, bankable)
	*bk = nbk
	if resumed {
		stats.BankReuses++
	}
	stats.Concrete.Enumerated += cstats.Enumerated
	stats.Concrete.Kept += cstats.Kept
	stats.Concrete.Restarts += cstats.Restarts
	stats.Concrete.InterpPruned += cstats.InterpPruned
	if cstats.MaxSizeSeen > stats.Concrete.MaxSizeSeen {
		stats.Concrete.MaxSizeSeen = cstats.MaxSizeSeen
	}
	if err != nil {
		return nil, false, err
	}

	rec = IterRecord{
		Round:      iter,
		Candidate:  candidate.String(),
		Accepted:   true,
		KilledBy:   -1,
		Enumerated: cstats.Enumerated,
		Kept:       cstats.Kept,
		Resumed:    resumed,
		Restarted:  cstats.Restarts > 0,
	}
	for i := range examples {
		S, err := be.checkExample(ctx, i, candidate, stats)
		if err != nil {
			return nil, false, err
		}
		if S == nil {
			continue
		}
		// Witness S falsifies the example; concretize it.
		ko, err := be.concretize(ctx, S, stats)
		if err != nil {
			return nil, false, err
		}
		*concrete = append(*concrete, ConcreteExample{S: S, Out: ko})
		rec.Accepted, rec.KilledBy = false, i
		rec.Witness, rec.CounterOut = be.witness(S), ko.String()
		// One new concretization per iteration keeps the trace
		// aligned with the paper's Table 2; remaining examples are
		// re-checked next round against the refined candidate.
		break
	}
	stats.Trace = append(stats.Trace, rec)
	return candidate, rec.Accepted, nil
}

// smtBackend issues the CEGIS queries, each a one-shot query over
// Vars ∪ {o}:
//
//	consistency(i, e):  pre_i ∧ ¬post_i ∧ (o = e)     witness over Vars
//	concretize(S):      ∧_j (pre_j ⇒ post_j) ∧ pins(S) model value of o
//
// Model choice is steered with hints (smt.Options.Hint): every query is
// hinted toward the saturated valuation — each variable, the output
// included, at its domain maximum (full sets, highest PIDs). Consistency
// witnesses then land in the richest corner of the violating region, where
// most candidate families already agree and the subsequent pin
// discriminates as little as possible; the output must be hinted too,
// since it canonicalizes early and an unhinted (least-value) output drags
// the inputs to a degenerate corner through the o = e binding.
// Concretizations pin the legal output closest to the domain maximum —
// the most permissive correction — which keeps small generalizations (add
// every relevant PID) inside the consistent set instead of forcing
// minimal-output special cases.
type smtBackend struct {
	p        Problem
	qvars    []*expr.Var // p.Vars ∪ {Output}
	byName   []*expr.Var // p.Vars in name order, the order a witness is written in
	opts     smt.Options // hinted toward the saturated valuation
	examples []ConcolicExample
	allEx    expr.Expr // ∧_j (pre_j ⇒ post_j)
}

func newBackend(p Problem, examples []ConcolicExample, opts smt.Options) *smtBackend {
	qvars := append(append([]*expr.Var(nil), p.Vars...), p.Output)
	opts.Hint = make(expr.Env, len(qvars))
	for _, v := range qvars {
		opts.Hint[v.Name] = expr.MaxOf(p.U, v.VT)
	}
	forms := make([]expr.Expr, 0, len(examples))
	for _, c := range examples {
		forms = append(forms, c.Formula())
	}
	byName := slices.Clone(p.Vars)
	slices.SortFunc(byName, func(x, y *expr.Var) int { return strings.Compare(x.Name, y.Name) })
	return &smtBackend{p: p, qvars: qvars, byName: byName, opts: opts, examples: examples, allEx: expr.And(forms...)}
}

// witness writes the valuation S over the inputs as an IterRecord's
// Witness: "k=v" pairs in name order, joined by single spaces.
func (be *smtBackend) witness(S expr.Env) string {
	b := make([]byte, 0, 16*len(be.byName))
	for i, v := range be.byName {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(append(append(b, v.Name...), '='), S[v.Name].String()...)
	}
	return string(b)
}

// checkExample poses consistency query i for the candidate and returns
// the witness valuation over p.Vars, or nil when the example is
// satisfied.
func (be *smtBackend) checkExample(ctx context.Context, i int, candidate expr.Expr, stats *Stats) (expr.Env, error) {
	c := be.examples[i]
	stats.SMTQueries++
	query := expr.And(c.Pre, expr.Not(c.Post), expr.Eq(be.p.Output, candidate))
	res, qstats, err := smt.SolveStatsCtx(ctx, be.p.U, be.qvars, query, be.opts)
	stats.SMTClauses += qstats.Clauses
	if err != nil {
		return nil, fmt.Errorf("synth: consistency query: %w", err)
	}
	switch res.Status {
	case smt.Unsat:
		return nil, nil
	case smt.Unknown:
		return nil, fmt.Errorf("synth: consistency query: %w", smt.ErrConflictBudget)
	}
	// The witness is the model's projection onto the input variables.
	S := make(expr.Env, len(be.p.Vars))
	for _, v := range be.p.Vars {
		S[v.Name] = res.Model[v.Name]
	}
	return S, nil
}

// concretize finds k_o for the pinned valuation S (line 9 of Algorithm 2).
// The paper concretizes against the violated example's post-condition; we
// concretize against the conjunction of all examples (pre_i ⇒ post_i),
// which any consistent expression must satisfy at S — this prevents two
// iterations from pinning contradictory outputs for the same S when
// examples interact. If no output value exists, the example set is
// contradictory for a reachable input valuation.
//
// The query hints the output toward its domain maximum: k_o is the legal
// output closest to the saturated value, i.e. the most permissive pin the
// examples allow at S. An unhinted (least-value) k_o would often pin a
// degenerate output only a spec-overfitted expression can reproduce,
// stranding CEGIS; the saturated pin instead stays reachable by the small
// generalizations (add every relevant PID) the enumerator proposes first.
func (be *smtBackend) concretize(ctx context.Context, S expr.Env, stats *Stats) (expr.Value, error) {
	pins := make([]expr.Expr, 0, len(be.p.Vars))
	for _, v := range be.p.Vars {
		val, ok := S[v.Name]
		if !ok {
			return expr.Value{}, fmt.Errorf("synth: witness lacks value for %s", v.Name)
		}
		pins = append(pins, expr.Eq(v, expr.NewConst(val)))
	}
	stats.SMTQueries++
	query := expr.And(be.allEx, expr.And(pins...))
	res, qstats, err := smt.SolveStatsCtx(ctx, be.p.U, be.qvars, query, be.opts)
	stats.SMTClauses += qstats.Clauses
	if err != nil {
		return expr.Value{}, fmt.Errorf("synth: output concretization: %w", err)
	}
	switch res.Status {
	case smt.Sat:
		return res.Model[be.p.Output.Name], nil
	case smt.Unsat:
		return expr.Value{}, fmt.Errorf("%w: no output value satisfies post-condition under %v",
			ErrInconsistent, S)
	default:
		return expr.Value{}, fmt.Errorf("synth: output concretization: %w", smt.ErrConflictBudget)
	}
}
