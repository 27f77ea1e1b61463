package synth

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"transit/internal/expr"
)

// smallProblem builds a compact universe/vocabulary for fast tests.
func smallProblem(t *testing.T, outType expr.Type, vars ...*expr.Var) Problem {
	t.Helper()
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	return Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", outType)}
}

// assertConsistentConcolic brute-force checks the result against every
// concolic example over the full variable domains.
func assertConsistentConcolic(t *testing.T, p Problem, e expr.Expr, exs []ConcolicExample) {
	t.Helper()
	var rec func(i int, env expr.Env)
	rec = func(i int, env expr.Env) {
		if i == len(p.Vars) {
			out := e.Eval(p.U, env)
			env2 := env.Clone()
			env2[p.Output.Name] = out
			for _, c := range exs {
				if c.Pre.Eval(p.U, env).Bool() && !c.Post.Eval(p.U, env2).Bool() {
					t.Fatalf("expression %s inconsistent at %v (out=%v)", e, env, out)
				}
			}
			return
		}
		for _, v := range expr.ValuesOf(p.U, p.Vars[i].VT) {
			env[p.Vars[i].Name] = v
			rec(i+1, env)
		}
	}
	rec(0, expr.Env{})
}

func TestSolveConcreteEmptyExamples(t *testing.T) {
	a := expr.V("a", expr.IntType)
	p := smallProblem(t, expr.IntType, a)
	e, stats, err := SolveConcrete(p, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// With no examples everything is indistinguishable; the first
	// candidate of the output type (the variable a) is returned.
	if e.String() != "a" {
		t.Errorf("got %s, want a", e)
	}
	if stats.Enumerated == 0 {
		t.Error("stats not populated")
	}
}

func TestSolveConcreteMax(t *testing.T) {
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	p := smallProblem(t, expr.IntType, a, b)
	u := p.U
	mkEx := func(av, bv, out int64) ConcreteExample {
		return ConcreteExample{
			S:   expr.Env{"a": expr.IntVal(u, av), "b": expr.IntVal(u, bv)},
			Out: expr.IntVal(u, out),
		}
	}
	// Enough examples to pin down max (distinguishes from a, b, add, ...).
	exs := []ConcreteExample{
		mkEx(5, 3, 5), mkEx(2, 7, 7), mkEx(-3, -5, -3), mkEx(0, 0, 0), mkEx(1, -1, 1), mkEx(-8, 4, 4),
	}
	e, _, err := SolveConcrete(p, exs, Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range exs {
		if got := e.Eval(u, c.S); got != c.Out {
			t.Errorf("%s on %v = %v, want %v", e, c.S, got, c.Out)
		}
	}
}

func TestSolveConcreteRespectsSizeLimit(t *testing.T) {
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	p := smallProblem(t, expr.IntType, a, b)
	u := p.U
	// max requires size >= 6 with this vocabulary; MaxSize 3 must fail.
	exs := []ConcreteExample{
		{S: expr.Env{"a": expr.IntVal(u, 5), "b": expr.IntVal(u, 3)}, Out: expr.IntVal(u, 5)},
		{S: expr.Env{"a": expr.IntVal(u, 2), "b": expr.IntVal(u, 7)}, Out: expr.IntVal(u, 7)},
		{S: expr.Env{"a": expr.IntVal(u, -3), "b": expr.IntVal(u, -5)}, Out: expr.IntVal(u, -3)},
		{S: expr.Env{"a": expr.IntVal(u, 1), "b": expr.IntVal(u, -1)}, Out: expr.IntVal(u, 1)},
		{S: expr.Env{"a": expr.IntVal(u, 0), "b": expr.IntVal(u, 3)}, Out: expr.IntVal(u, 3)},
		{S: expr.Env{"a": expr.IntVal(u, -2), "b": expr.IntVal(u, -1)}, Out: expr.IntVal(u, -1)},
		{S: expr.Env{"a": expr.IntVal(u, 7), "b": expr.IntVal(u, 0)}, Out: expr.IntVal(u, 7)},
		{S: expr.Env{"a": expr.IntVal(u, -8), "b": expr.IntVal(u, 4)}, Out: expr.IntVal(u, 4)},
	}
	_, _, err := SolveConcrete(p, exs, Limits{MaxSize: 3})
	if !errors.Is(err, ErrNoExpression) {
		t.Fatalf("err = %v, want ErrNoExpression", err)
	}
}

func TestSolveConcreteOutputTypeMismatch(t *testing.T) {
	a := expr.V("a", expr.IntType)
	p := smallProblem(t, expr.IntType, a)
	exs := []ConcreteExample{{S: expr.Env{"a": expr.IntVal(p.U, 1)}, Out: expr.BoolVal(true)}}
	if _, _, err := SolveConcrete(p, exs, Limits{}); err == nil {
		t.Error("expected type-mismatch error")
	}
}

func TestSolveConcreteOutputCollision(t *testing.T) {
	o := expr.V("o", expr.IntType)
	p := smallProblem(t, expr.IntType, o)
	if _, _, err := SolveConcrete(p, nil, Limits{}); err == nil {
		t.Error("expected output-variable collision error")
	}
}

func TestPruningBeatsExhaustive(t *testing.T) {
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	p := smallProblem(t, expr.IntType, a, b)
	u := p.U
	rng := rand.New(rand.NewSource(5))
	// A target of size 6 (max) with 10 random consistent examples, per the
	// Figure 5 methodology.
	target := expr.Ite(expr.Gt(expr.V("a", expr.IntType), expr.V("b", expr.IntType)),
		expr.V("a", expr.IntType), expr.V("b", expr.IntType))
	var exs []ConcreteExample
	for i := 0; i < 10; i++ {
		env := expr.RandomEnv(u, rng, p.Vars)
		exs = append(exs, ConcreteExample{S: env, Out: target.Eval(u, env)})
	}
	_, pruned, err := SolveConcrete(p, exs, Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, exhaustive, err := SolveConcrete(p, exs, Limits{MaxSize: 8, NoPrune: true, MaxExprs: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Enumerated >= exhaustive.Enumerated {
		t.Errorf("pruned (%d) should explore fewer than exhaustive (%d)",
			pruned.Enumerated, exhaustive.Enumerated)
	}
	t.Logf("pruned=%d exhaustive=%d (%.1fx)", pruned.Enumerated, exhaustive.Enumerated,
		float64(exhaustive.Enumerated)/float64(pruned.Enumerated))
}

func TestSolveConcolicMaxTwoStyles(t *testing.T) {
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	// Style (a) of Table 3 row 1: two guarded equalities.
	styleA := []ConcolicExample{
		{Pre: expr.Gt(a, b), Post: expr.Eq(o, a)},
		{Pre: expr.Gt(b, a), Post: expr.Eq(o, b)},
	}
	// Style (b): one functional spec.
	styleB := []ConcolicExample{
		{Pre: expr.True(), Post: expr.And(expr.Ge(o, a), expr.Ge(o, b), expr.Or(expr.Eq(o, a), expr.Eq(o, b)))},
	}
	for name, exs := range map[string][]ConcolicExample{"guarded": styleA, "functional": styleB} {
		t.Run(name, func(t *testing.T) {
			p := smallProblem(t, expr.IntType, a, b)
			e, stats, err := SolveConcolic(p, exs, Limits{MaxSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			assertConsistentConcolic(t, p, e, exs)
			if stats.Iterations > 10 {
				t.Errorf("took %d CEGIS iterations, expected a few", stats.Iterations)
			}
			t.Logf("%s in %d iterations, %d SMT queries (%s)", e, stats.Iterations, stats.SMTQueries, stats.Elapsed)
		})
	}
}

// Max-of-three's minimal representation has size 16
// (ite(gt(a,b), ite(gt(a,c), a, c), ite(gt(b,c), b, c))); full CEGIS
// convergence on it takes minutes and lives in the Table 3 benchmark
// harness. The unit test covers the same spec with a handful of concrete
// examples, which is the per-iteration workload.
func TestSolveConcreteMaxOfThreeExamples(t *testing.T) {
	a, b, c := expr.V("a", expr.IntType), expr.V("b", expr.IntType), expr.V("c", expr.IntType)
	p := smallProblem(t, expr.IntType, a, b, c)
	u := p.U
	max3 := func(x, y, z int64) int64 {
		m := x
		if y > m {
			m = y
		}
		if z > m {
			m = z
		}
		return m
	}
	rng := rand.New(rand.NewSource(11))
	var exs []ConcreteExample
	for i := 0; i < 5; i++ {
		env := expr.RandomEnv(u, rng, p.Vars)
		out := max3(env["a"].Int(), env["b"].Int(), env["c"].Int())
		exs = append(exs, ConcreteExample{S: env, Out: expr.IntVal(u, out)})
	}
	e, stats, err := SolveConcrete(p, exs, Limits{MaxSize: 16, MaxExprs: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exs {
		if got := e.Eval(u, ex.S); got != ex.Out {
			t.Errorf("%s on %v = %v, want %v", e, ex.S, got, ex.Out)
		}
	}
	t.Logf("max3 examples: %s after %d candidates", e, stats.Enumerated)
}

func TestSolveConcolicEnumConditional(t *testing.T) {
	// Table 3 row: ite(equals(e, c1), a, b).
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	mt := u.MustDeclareEnum("MT", "READ", "WRITE")
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums: []*expr.EnumType{mt}, WithEnumConstants: true,
	})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	m := expr.V("m", expr.EnumOf(mt))
	o := expr.V("o", expr.IntType)
	p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b, m}, Output: o}
	exs := []ConcolicExample{
		{Pre: expr.Eq(m, expr.EnumC(mt, "READ")), Post: expr.Eq(o, a)},
		{Pre: expr.Neq(m, expr.EnumC(mt, "READ")), Post: expr.Eq(o, b)},
	}
	e, stats, err := SolveConcolic(p, exs, Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertConsistentConcolic(t, p, e, exs)
	t.Logf("enum conditional: %s (%d iters)", e, stats.Iterations)
}

func TestSolveConcolicSymmetricDifference(t *testing.T) {
	// Table 3 row 4: symmetric difference of two sets via three invariants.
	s1, s2 := expr.V("s1", expr.SetType), expr.V("s2", expr.SetType)
	o := expr.V("o", expr.SetType)
	un := expr.SetUnion(s1, s2)
	exs := []ConcolicExample{
		{Pre: expr.True(), Post: expr.SubsetEq(o, un)},
		{Pre: expr.True(), Post: expr.Eq(expr.SetInter(o, expr.SetInter(s1, s2)), expr.NewConst(expr.SetVal(0)))},
		{Pre: expr.True(), Post: expr.Eq(expr.SetUnion(o, un), un)},
	}
	p := smallProblem(t, expr.SetType, s1, s2)
	e, stats, err := SolveConcolic(p, exs, Limits{MaxSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertConsistentConcolic(t, p, e, exs)
	t.Logf("symdiff: %s (%d iters)", e, stats.Iterations)
}

func TestSolveConcolicLargestSet(t *testing.T) {
	// Table 3 row: ite(gt(setsize(s1), setsize(s2)), s1, s2), via the
	// functional spec |o| >= |s1| ∧ |o| >= |s2| ∧ (o = s1 ∨ o = s2).
	s1, s2 := expr.V("s1", expr.SetType), expr.V("s2", expr.SetType)
	o := expr.V("o", expr.SetType)
	exs := []ConcolicExample{
		{Pre: expr.True(), Post: expr.And(
			expr.Ge(expr.Card(o), expr.Card(s1)),
			expr.Ge(expr.Card(o), expr.Card(s2)),
			expr.Or(expr.Eq(o, s1), expr.Eq(o, s2)))},
	}
	p := smallProblem(t, expr.SetType, s1, s2)
	e, stats, err := SolveConcolic(p, exs, Limits{MaxSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertConsistentConcolic(t, p, e, exs)
	t.Logf("largest set: %s (%d iters)", e, stats.Iterations)
}

func TestSolveConcolicBooleanGuard(t *testing.T) {
	// Guard-style synthesis: o must be true exactly when p ∈ s.
	s := expr.V("s", expr.SetType)
	q := expr.V("q", expr.PIDType)
	o := expr.V("o", expr.BoolType)
	exs := []ConcolicExample{
		{Pre: expr.SetContains(s, q), Post: expr.Eq(o, expr.True())},
		{Pre: expr.Not(expr.SetContains(s, q)), Post: expr.Eq(o, expr.False())},
	}
	p := smallProblem(t, expr.BoolType, s, q)
	e, _, err := SolveConcolic(p, exs, Limits{MaxSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertConsistentConcolic(t, p, e, exs)
}

func TestSolveConcolicInconsistent(t *testing.T) {
	a := expr.V("a", expr.IntType)
	o := expr.V("o", expr.IntType)
	exs := []ConcolicExample{
		{Pre: expr.True(), Post: expr.Gt(o, a)},
		{Pre: expr.True(), Post: expr.Gt(a, o)},
	}
	p := smallProblem(t, expr.IntType, a)
	_, _, err := SolveConcolic(p, exs, Limits{MaxSize: 6})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestSolveConcolicTraceShape(t *testing.T) {
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	exs := []ConcolicExample{
		{Pre: expr.True(), Post: expr.And(expr.Ge(o, a), expr.Ge(o, b), expr.Or(expr.Eq(o, a), expr.Eq(o, b)))},
	}
	p := smallProblem(t, expr.IntType, a, b)
	_, stats, err := SolveConcolic(p, exs, Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Trace) != stats.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(stats.Trace), stats.Iterations)
	}
	last := stats.Trace[len(stats.Trace)-1]
	if !last.Accepted || last.KilledBy != -1 || last.Witness != "" || last.CounterOut != "" {
		t.Error("accepted iteration should have no witness")
	}
	for i, rec := range stats.Trace {
		if rec.Round != i+1 {
			t.Errorf("round %d numbered %d", i+1, rec.Round)
		}
		if i < len(stats.Trace)-1 && (rec.Accepted || rec.KilledBy != 0 || rec.Witness == "" || rec.CounterOut == "") {
			t.Errorf("rejected iteration must carry its killer, witness and new example: %+v", rec)
		}
	}
	// The witness is written as the ledger writes it: k=v in name order.
	if w := stats.Trace[0].Witness; !strings.HasPrefix(w, "a=") || !strings.Contains(w, " b=") {
		t.Errorf("witness %q is not written as a=… b=…", w)
	}
}

func TestSolveConcolicConcreteStyleExamples(t *testing.T) {
	// A "concrete snippet" is a concolic example whose pre pins every
	// variable and whose post is an output equality; SolveConcolic must
	// reproduce the exact function they describe.
	s := expr.V("s", expr.SetType)
	q := expr.V("q", expr.PIDType)
	o := expr.V("o", expr.SetType)
	p := smallProblem(t, expr.SetType, s, q)
	// Target: setadd(s, q). Supply a symbolic superset constraint plus a
	// concrete correction, mirroring the paper's §2 anecdote structure.
	exs := []ConcolicExample{
		{Pre: expr.True(), Post: expr.SubsetEq(expr.SetAdd(s, q), o)},
		{Pre: expr.And(expr.Eq(s, expr.SetC(0)), expr.Eq(q, expr.PIDC(1))),
			Post: expr.Eq(o, expr.SetC(0, 1))},
	}
	e, _, err := SolveConcolic(p, exs, Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertConsistentConcolic(t, p, e, exs)
}

func TestLimitsDefaults(t *testing.T) {
	l := Limits{}.withDefaults()
	if l.MaxSize != DefaultMaxSize || l.MaxExprs != DefaultMaxExprs || l.MaxIters != DefaultMaxIters {
		t.Errorf("defaults not applied: %+v", l)
	}
	l2 := Limits{MaxSize: 3}.withDefaults()
	if l2.MaxSize != 3 {
		t.Error("explicit value overridden")
	}
}

// Property: for random targets, SolveConcrete returns an expression that
// reproduces the target's outputs on every example, and pruning never
// changes that guarantee (testing/quick over seeds).
func TestSolveConcretePropertyRandomTargets(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	vars := []*expr.Var{
		expr.V("a", expr.IntType), expr.V("b", expr.IntType),
		expr.V("s", expr.SetType), expr.V("p", expr.PIDType),
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(7)
		outType := []expr.Type{expr.IntType, expr.BoolType, expr.SetType}[rng.Intn(3)]
		target, err := expr.RandomExpr(u, rng, voc, vars, outType, size)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exs := make([]ConcreteExample, 6)
		for i := range exs {
			env := expr.RandomEnv(u, rng, vars)
			exs[i] = ConcreteExample{S: env, Out: target.Eval(u, env)}
		}
		p := Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", outType)}
		e, _, err := SolveConcrete(p, exs, Limits{MaxSize: size + 2, MaxExprs: 3_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range exs {
			if e.Eval(u, c.S) != c.Out {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: pruning is sound — whenever both variants succeed, the pruned
// result agrees with the exhaustive result on every example.
func TestPruningSoundnessProperty(t *testing.T) {
	u, err := expr.NewUniverseWidth(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	vars := []*expr.Var{expr.V("a", expr.IntType), expr.V("b", expr.IntType)}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target, err := expr.RandomExpr(u, rng, voc, vars, expr.IntType, 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		exs := make([]ConcreteExample, 5)
		for i := range exs {
			env := expr.RandomEnv(u, rng, vars)
			exs[i] = ConcreteExample{S: env, Out: target.Eval(u, env)}
		}
		p := Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", expr.IntType)}
		pruned, _, err := SolveConcrete(p, exs, Limits{MaxSize: 8, MaxExprs: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, _, err := SolveConcrete(p, exs, Limits{MaxSize: 8, MaxExprs: 20_000_000, NoPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range exs {
			if pruned.Eval(u, c.S) != c.Out || exhaustive.Eval(u, c.S) != c.Out {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
