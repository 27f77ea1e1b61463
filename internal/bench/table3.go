package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/synth"
)

// Table3Benchmark is one expression-inference benchmark: a description, a
// reference expression (the paper's "expected expression" column — any
// semantically consistent expression is accepted), and a constraint
// builder.
type Table3Benchmark struct {
	Name        string
	Description string
	Expected    string
	// ExpectedSize is the reference expression's size.
	ExpectedSize int
	// Long marks benchmarks that need a multi-minute budget (the paper
	// ran with a 30-minute timeout; max-of-three's minimal form has size
	// 16).
	Long  bool
	Build func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample)
}

// Table3Row is one benchmark's measured outcome.
type Table3Row struct {
	Name         string
	Description  string
	Expected     string
	ExpectedSize int
	Found        string
	FoundSize    int
	Constraints  int
	Time         time.Duration
	Iterations   int
	// SMTQueries and Conflicts are read back from the row's own metrics
	// registry (counters "smt.queries" and "sat.conflicts"), the same
	// source -stats-summary reports, rather than re-derived from synth
	// stats — so the table stays consistent with the observability layer.
	SMTQueries int64
	Conflicts  int64
	Enumerated int64
	// Stop is why a row stopped without an answer: one of synth's stop
	// reasons (ErrExprBudget, ErrTimeout, ErrSizeBound, ErrIterBudget),
	// nil when the row found one.
	Stop    error
	Skipped bool
}

// stopNames names the stop reasons FormatTable3 prints.
var stopNames = []struct {
	err  error
	name string
}{
	{synth.ErrExprBudget, "candidate budget"},
	{synth.ErrTimeout, "timeout"},
	{synth.ErrSizeBound, "size bound"},
	{synth.ErrIterBudget, "iteration budget"},
}

// stopReason returns the stop reason err wraps, or synth.ErrNoExpression
// itself when it wraps none of them.
func stopReason(err error) error {
	for _, s := range stopNames {
		if errors.Is(err, s.err) {
			return s.err
		}
	}
	return synth.ErrNoExpression
}

// stopName names a Table3Row's stop reason.
func stopName(stop error) string {
	for _, s := range stopNames {
		if stop == s.err {
			return s.name
		}
	}
	return "no expression"
}

// intProblem builds a Problem over Int variables with the full coherence
// vocabulary.
func intProblem(u *expr.Universe, outType expr.Type, names ...string) (synth.Problem, []*expr.Var) {
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	var vars []*expr.Var
	for _, n := range names {
		t := expr.IntType
		switch n[0] {
		case 's':
			t = expr.SetType
		case 'p':
			t = expr.PIDType
		}
		vars = append(vars, expr.V(n, t))
	}
	return synth.Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", outType)}, vars
}

// Table3Benchmarks is the benchmark suite, reconstructing the paper's
// Table 3: maxima via guarded and functional specs, conditionals over
// enums, and the set-operation rows.
func Table3Benchmarks() []Table3Benchmark {
	return []Table3Benchmark{
		{
			Name:        "max2-guarded",
			Description: "Max of a, b (guarded equalities)",
			Expected:    "ite(gt(a, b), a, b)", ExpectedSize: 6,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.IntType, "a", "b")
				a, b := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{
					{Pre: expr.Gt(a, b), Post: expr.Eq(o, a)},
					{Pre: expr.Gt(b, a), Post: expr.Eq(o, b)},
				}
			},
		},
		{
			Name:        "max2-functional",
			Description: "Max of a, b (functional spec)",
			Expected:    "ite(gt(a, b), a, b)", ExpectedSize: 6,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.IntType, "a", "b")
				a, b := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{{
					Pre: expr.True(),
					Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
						expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
				}}
			},
		},
		{
			Name:        "min2-functional",
			Description: "Min of a, b (functional spec)",
			Expected:    "ite(gt(a, b), b, a)", ExpectedSize: 6,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.IntType, "a", "b")
				a, b := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{{
					Pre: expr.True(),
					Post: expr.And(expr.Ge(a, o), expr.Ge(b, o),
						expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
				}}
			},
		},
		{
			Name:        "abs-diff",
			Description: "Absolute difference |a - b|",
			Expected:    "ite(gt(a, b), sub(a, b), sub(b, a))", ExpectedSize: 9,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.IntType, "a", "b")
				a, b := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{
					{Pre: expr.Gt(a, b), Post: expr.Eq(o, expr.Sub(a, b))},
					{Pre: expr.Ge(b, a), Post: expr.Eq(o, expr.Sub(b, a))},
				}
			},
		},
		{
			Name:        "enum-conditional",
			Description: "Conditional on an enum: ite(e = c1, a, b)",
			Expected:    "ite(equals(e, c1), a, b)", ExpectedSize: 6,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				et := u.MustDeclareEnum("T3E", "c1", "c2", "c3")
				voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
					Enums: []*expr.EnumType{et}, WithEnumConstants: true, WithoutEnumIte: true,
				})
				a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
				e := expr.V("e", expr.EnumOf(et))
				o := expr.V("o", expr.IntType)
				p := synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b, e}, Output: o}
				return p, []synth.ConcolicExample{
					{Pre: expr.Eq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, a)},
					{Pre: expr.Neq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, b)},
				}
			},
		},
		{
			Name:        "sym-diff",
			Description: "Symmetric difference of two sets (three invariants)",
			Expected:    "setunion(setminus(s1, s2), setminus(s2, s1))", ExpectedSize: 7,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.SetType, "s1", "s2")
				s1, s2 := vars[0], vars[1]
				o := p.Output
				un := expr.SetUnion(s1, s2)
				inter := expr.SetInter(s1, s2)
				return p, []synth.ConcolicExample{
					{Pre: expr.True(), Post: expr.SubsetEq(o, un)},
					{Pre: expr.True(), Post: expr.Eq(expr.SetInter(o, inter), expr.NewConst(expr.SetVal(0)))},
					// Together with the disjointness constraint this pins
					// o to exactly (s1 ∪ s2) \ (s1 ∩ s2).
					{Pre: expr.True(), Post: expr.Eq(expr.SetUnion(o, inter), un)},
				}
			},
		},
		{
			Name:        "largest-set-guarded",
			Description: "Largest of 2 sets (guarded)",
			Expected:    "ite(gt(setsize(s1), setsize(s2)), s1, s2)", ExpectedSize: 8,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.SetType, "s1", "s2")
				s1, s2 := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{
					{Pre: expr.Gt(expr.Card(s1), expr.Card(s2)), Post: expr.Eq(o, s1)},
					{Pre: expr.Ge(expr.Card(s2), expr.Card(s1)), Post: expr.Eq(o, s2)},
				}
			},
		},
		{
			Name:        "largest-set-functional",
			Description: "Largest of 2 sets (functional spec)",
			Expected:    "ite(gt(setsize(s1), setsize(s2)), s1, s2)", ExpectedSize: 8,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.SetType, "s1", "s2")
				s1, s2 := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{{
					Pre: expr.True(),
					Post: expr.And(
						expr.Ge(expr.Card(o), expr.Card(s1)),
						expr.Ge(expr.Card(o), expr.Card(s2)),
						expr.Or(expr.Eq(o, s1), expr.Eq(o, s2))),
				}}
			},
		},
		{
			Name:        "count-others",
			Description: "Number of sharers other than p",
			Expected:    "setsize(setminus(s1, setof(p1)))", ExpectedSize: 5,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.IntType, "s1", "p1")
				s1, p1 := vars[0], vars[1]
				o := p.Output
				return p, []synth.ConcolicExample{{
					Pre:  expr.True(),
					Post: expr.Eq(o, expr.Card(expr.SetMinus(s1, expr.Singleton(p1)))),
				}}
			},
		},
		{
			Name:        "max3-functional",
			Description: "Max of a, b, c (functional spec; minimal form has size 16)",
			Expected:    "ite(gt(a, b), ite(gt(a, c), a, c), ite(gt(b, c), b, c))", ExpectedSize: 16,
			Long: true,
			Build: func(u *expr.Universe) (synth.Problem, []synth.ConcolicExample) {
				p, vars := intProblem(u, expr.IntType, "a", "b", "c")
				a, b, c := vars[0], vars[1], vars[2]
				o := p.Output
				return p, []synth.ConcolicExample{{
					Pre: expr.True(),
					Post: expr.And(expr.Ge(o, a), expr.Ge(o, b), expr.Ge(o, c),
						expr.Or(expr.Eq(o, a), expr.Eq(o, b), expr.Eq(o, c))),
				}}
			},
		},
	}
}

// Table3Options bounds the suite run.
type Table3Options struct {
	// IncludeLong runs the multi-minute benchmarks (max-of-three).
	IncludeLong bool
	// Timeout per benchmark; 0 means 30s for short rows and 30min for
	// long ones (the paper's timeout).
	Timeout time.Duration
	// MaxExprs caps enumeration per SolveConcrete call. 0 means
	// synth.DefaultMaxExprs for short rows and no cap for long ones, whose
	// only budget is then the timeout.
	MaxExprs int64
}

// Table3Ctx runs the benchmark suite. Each found expression is verified
// against its constraints by brute force over a reduced universe before
// being reported. The context carries cancellation and the observability
// plumbing.
func Table3Ctx(ctx context.Context, opts Table3Options) ([]Table3Row, error) {
	var rows []Table3Row
	for _, b := range Table3Benchmarks() {
		row := Table3Row{
			Name: b.Name, Description: b.Description,
			Expected: b.Expected, ExpectedSize: b.ExpectedSize,
		}
		if b.Long && !opts.IncludeLong {
			row.Skipped = true
			rows = append(rows, row)
			continue
		}
		timeout := opts.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second
			if b.Long {
				timeout = 30 * time.Minute
			}
		}
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			return nil, err
		}
		prob, exs := b.Build(u)
		row.Constraints = len(exs)
		limits := synth.Limits{MaxSize: b.ExpectedSize + 2, Timeout: timeout, MaxExprs: opts.MaxExprs}
		if b.Long && limits.MaxExprs == 0 {
			limits.MaxExprs = math.MaxInt64
		}
		// Per-row metrics registry: the SMT/conflict columns read the same
		// counters the observability layer aggregates, isolated per row.
		reg := obs.NewRegistry()
		rctx := obs.WithMetrics(ctx, reg)
		start := time.Now()
		e, stats, err := synth.SolveConcolicCtx(rctx, prob, exs, limits)
		row.Time = time.Since(start)
		row.Iterations = stats.Iterations
		row.SMTQueries = reg.Get("smt.queries")
		row.Conflicts = reg.Get("sat.conflicts")
		row.Enumerated = stats.Concrete.Enumerated
		if err != nil {
			if errors.Is(err, synth.ErrNoExpression) {
				row.Stop = stopReason(err)
				rows = append(rows, row)
				continue
			}
			return nil, fmt.Errorf("bench: %s: %w", b.Name, err)
		}
		row.Found = e.String()
		row.FoundSize = e.Size()
		if err := verifyConsistent(prob, e, exs); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", b.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyConsistent brute-force checks a found expression against the
// concolic examples over the full (reduced) domains.
func verifyConsistent(p synth.Problem, e expr.Expr, exs []synth.ConcolicExample) error {
	var rec func(i int, env expr.Env) error
	rec = func(i int, env expr.Env) error {
		if i == len(p.Vars) {
			out := e.Eval(p.U, env)
			env2 := env.Clone()
			env2[p.Output.Name] = out
			for _, c := range exs {
				if c.Pre.Eval(p.U, env).Bool() && !c.Post.Eval(p.U, env2).Bool() {
					return fmt.Errorf("expression %s inconsistent at %v", e, env)
				}
			}
			return nil
		}
		for _, v := range expr.ValuesOf(p.U, p.Vars[i].VT) {
			env[p.Vars[i].Name] = v
			if err := rec(i+1, env); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, expr.Env{})
}
