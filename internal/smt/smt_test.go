package smt

import (
	"context"
	"math/rand"
	"testing"

	"transit/internal/expr"
)

func TestSolveTrivial(t *testing.T) {
	u := expr.NewUniverse(2)
	res, _, err := SolveCtx(context.Background(), u, nil, expr.True(), Options{})
	if err != nil || res.Status != Sat {
		t.Fatalf("true: %v %v", res.Status, err)
	}
	res, _, err = SolveCtx(context.Background(), u, nil, expr.False(), Options{})
	if err != nil || res.Status != Unsat {
		t.Fatalf("false: %v %v", res.Status, err)
	}
}

func TestSolveModelSatisfiesFormula(t *testing.T) {
	u := expr.NewUniverse(3)
	a := expr.V("a", expr.IntType)
	b := expr.V("b", expr.IntType)
	s := expr.V("s", expr.SetType)
	p := expr.V("p", expr.PIDType)
	f := expr.And(
		expr.Gt(a, b),
		expr.Eq(expr.Add(a, b), expr.IntC(u, 10)),
		expr.SetContains(s, p),
		expr.Eq(expr.Card(s), expr.IntC(u, 2)),
	)
	vars := []*expr.Var{a, b, s, p}
	res, _, err := SolveCtx(context.Background(), u, vars, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if !f.Eval(u, res.Model).Bool() {
		t.Fatalf("model %v does not satisfy formula", res.Model)
	}
}

func TestSolveUnsatArithmetic(t *testing.T) {
	u := expr.NewUniverse(2)
	a := expr.V("a", expr.IntType)
	// a > a is unsat.
	res, _, err := SolveCtx(context.Background(), u, []*expr.Var{a}, expr.Gt(a, a), Options{})
	if err != nil || res.Status != Unsat {
		t.Fatalf("a>a: %v %v", res.Status, err)
	}
	// a + 1 = a is unsat under wrapping too (adds exactly 1 mod 2^W).
	res, _, err = SolveCtx(context.Background(), u, []*expr.Var{a}, expr.Eq(expr.Inc(a), a), Options{})
	if err != nil || res.Status != Unsat {
		t.Fatalf("a+1=a: %v %v", res.Status, err)
	}
}

func TestWrappingAgreesWithEvaluator(t *testing.T) {
	u := expr.NewUniverse(2)
	a := expr.V("a", expr.IntType)
	// inc(127) = -128 under 8-bit wrapping; the SMT encoding must agree.
	f := expr.And(
		expr.Eq(a, expr.IntC(u, 127)),
		expr.Eq(expr.Inc(a), expr.IntC(u, -128)),
	)
	res, _, err := SolveCtx(context.Background(), u, []*expr.Var{a}, f, Options{})
	if err != nil || res.Status != Sat {
		t.Fatalf("wrap: %v %v", res.Status, err)
	}
}

func TestPIDDomainConstraint(t *testing.T) {
	u := expr.NewUniverse(3) // PIDs 0..2 in 2 bits; pattern 3 must be blocked
	p := expr.V("p", expr.PIDType)
	f := expr.And(
		expr.Neq(p, expr.PIDC(0)),
		expr.Neq(p, expr.PIDC(1)),
		expr.Neq(p, expr.PIDC(2)),
	)
	res, _, err := SolveCtx(context.Background(), u, []*expr.Var{p}, f, Options{})
	if err != nil || res.Status != Unsat {
		t.Fatalf("PID exhaustion should be unsat: %v %v", res.Status, err)
	}
}

func TestEnumDomainConstraint(t *testing.T) {
	u := expr.NewUniverse(2)
	e := u.MustDeclareEnum("MT", "A", "B", "C") // 2 bits, pattern 3 blocked
	m := expr.V("m", expr.EnumOf(e))
	f := expr.And(
		expr.Neq(m, expr.EnumC(e, "A")),
		expr.Neq(m, expr.EnumC(e, "B")),
		expr.Neq(m, expr.EnumC(e, "C")),
	)
	res, _, err := SolveCtx(context.Background(), u, []*expr.Var{m}, f, Options{})
	if err != nil || res.Status != Unsat {
		t.Fatalf("enum exhaustion should be unsat: %v %v", res.Status, err)
	}
}

func TestSetOperations(t *testing.T) {
	u := expr.NewUniverse(4)
	s := expr.V("s", expr.SetType)
	r := expr.V("r", expr.SetType)
	vars := []*expr.Var{s, r}
	// s ∪ r = {0,1,2} ∧ s ∩ r = {1} ∧ s \ r = {0}
	f := expr.And(
		expr.Eq(expr.SetUnion(s, r), expr.SetC(0, 1, 2)),
		expr.Eq(expr.SetInter(s, r), expr.SetC(1)),
		expr.Eq(expr.SetMinus(s, r), expr.SetC(0)),
	)
	res, _, err := SolveCtx(context.Background(), u, vars, f, Options{})
	if err != nil || res.Status != Sat {
		t.Fatalf("set ops: %v %v", res.Status, err)
	}
	if res.Model["s"].Set() != 0b0011 || res.Model["r"].Set() != 0b0110 {
		t.Errorf("model s=%v r=%v", res.Model["s"], res.Model["r"])
	}
}

func TestSetofAndContains(t *testing.T) {
	u := expr.NewUniverse(4)
	p := expr.V("p", expr.PIDType)
	// setcontains(setof(p), q) forces q = p.
	q := expr.V("q", expr.PIDType)
	f := expr.And(
		expr.SetContains(expr.Singleton(p), q),
		expr.Neq(p, q),
	)
	res, _, err := SolveCtx(context.Background(), u, []*expr.Var{p, q}, f, Options{})
	if err != nil || res.Status != Unsat {
		t.Fatalf("singleton membership: %v %v", res.Status, err)
	}
}

func TestValid(t *testing.T) {
	u := expr.NewUniverse(3)
	s := expr.V("s", expr.SetType)
	p := expr.V("p", expr.PIDType)
	vars := []*expr.Var{s, p}
	// Valid: p ∈ s ∪ {p}.
	ok, _, err := ValidCtx(context.Background(), u, vars, expr.SetContains(expr.SetAdd(s, p), p), Options{})
	if err != nil || !ok {
		t.Fatalf("valid formula rejected: %v %v", ok, err)
	}
	// Invalid: p ∈ s; counterexample must falsify.
	ok, cex, err := ValidCtx(context.Background(), u, vars, expr.SetContains(s, p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("invalid formula accepted")
	}
	if expr.SetContains(s, p).Eval(u, cex).Bool() {
		t.Fatalf("counterexample %v does not falsify", cex)
	}
}

func TestNumcachesConstant(t *testing.T) {
	u := expr.NewUniverse(5)
	a := expr.V("a", expr.IntType)
	f := expr.Eq(a, expr.NumCaches())
	res, _, err := SolveCtx(context.Background(), u, []*expr.Var{a}, f, Options{})
	if err != nil || res.Status != Sat {
		t.Fatalf("numcaches: %v %v", res.Status, err)
	}
	if res.Model["a"].Int() != 5 {
		t.Errorf("a = %d, want 5", res.Model["a"].Int())
	}
}

func TestErrors(t *testing.T) {
	u := expr.NewUniverse(2)
	a := expr.V("a", expr.IntType)
	if _, _, err := SolveCtx(context.Background(), u, nil, a, Options{}); err == nil {
		t.Error("non-Bool formula should error")
	}
	if _, _, err := SolveCtx(context.Background(), u, nil, expr.Gt(a, a), Options{}); err == nil {
		t.Error("free variable should error")
	}
	if _, _, err := SolveCtx(context.Background(), u, []*expr.Var{a, a}, expr.Gt(a, a), Options{}); err == nil {
		t.Error("duplicate variable should error")
	}
	// PID constant out of range for the universe.
	p := expr.V("p", expr.PIDType)
	if _, _, err := SolveCtx(context.Background(), u, []*expr.Var{p}, expr.Eq(p, expr.PIDC(7)), Options{}); err == nil {
		t.Error("out-of-range PID constant should error")
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	u := expr.NewUniverse(2)
	odd := &expr.Func{Name: "odd", Params: []expr.Type{expr.IntType}, Ret: expr.BoolType,
		Apply: func(u *expr.Universe, a []expr.Value) expr.Value { return expr.BoolVal(a[0].Int()%2 != 0) }}
	a := expr.V("a", expr.IntType)
	if _, _, err := SolveCtx(context.Background(), u, []*expr.Var{a}, expr.NewApply(odd, a), Options{}); err == nil {
		t.Error("unencodable function should error")
	}
}

func TestSingleCacheUniverse(t *testing.T) {
	// numCaches == 1: PID needs zero bits; everything must still work.
	u := expr.NewUniverse(1)
	p := expr.V("p", expr.PIDType)
	q := expr.V("q", expr.PIDType)
	ok, _, err := ValidCtx(context.Background(), u, []*expr.Var{p, q}, expr.Eq(p, q), Options{})
	if err != nil || !ok {
		t.Fatalf("all PIDs equal in 1-cache universe: %v %v", ok, err)
	}
}

// Cross-validation: random formulas, bit-blasting vs. brute force.
func TestRandomFormulasAgainstBruteForce(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4) // small domains keep brute force fast
	if err != nil {
		t.Fatal(err)
	}
	mt := u.MustDeclareEnum("MT", "GetS", "GetM", "Put")
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums:             []*expr.EnumType{mt},
		WithEnumConstants: true,
	})
	vars := []*expr.Var{
		expr.V("a", expr.IntType),
		expr.V("s", expr.SetType),
		expr.V("p", expr.PIDType),
		expr.V("m", expr.EnumOf(mt)),
	}
	rng := rand.New(rand.NewSource(2024))
	agree := 0
	for trial := 0; trial < 120; trial++ {
		size := 3 + rng.Intn(9)
		f, err := expr.RandomExpr(u, rng, voc, vars, expr.BoolType, size)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SolveCtx(context.Background(), u, vars, f, Options{})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, f, err)
		}
		want, err := SolveBrute(u, vars, f, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: smt=%v brute=%v for %s", trial, got.Status, want.Status, f)
		}
		if got.Status == Sat {
			if !f.Eval(u, got.Model).Bool() {
				t.Fatalf("trial %d: model does not satisfy %s", trial, f)
			}
		}
		agree++
	}
	if agree != 120 {
		t.Fatalf("only %d trials ran", agree)
	}
}

// Cross-validation on equalities between two random terms of the same type,
// which stresses the word-level circuits harder than random Bool trees.
func TestRandomEqualitiesAgainstBruteForce(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	vars := []*expr.Var{
		expr.V("a", expr.IntType),
		expr.V("b", expr.IntType),
		expr.V("s", expr.SetType),
		expr.V("r", expr.SetType),
		expr.V("p", expr.PIDType),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		typ := []expr.Type{expr.IntType, expr.SetType}[rng.Intn(2)]
		lhs, err := expr.RandomExpr(u, rng, voc, vars, typ, 2+rng.Intn(7))
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := expr.RandomExpr(u, rng, voc, vars, typ, 2+rng.Intn(7))
		if err != nil {
			t.Fatal(err)
		}
		f := expr.Eq(lhs, rhs)
		got, _, err := SolveCtx(context.Background(), u, vars, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveBrute(u, vars, f, 1<<21)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: smt=%v brute=%v for %s", trial, got.Status, want.Status, f)
		}
		if got.Status == Sat && !f.Eval(u, got.Model).Bool() {
			t.Fatalf("trial %d: bad model for %s", trial, f)
		}
	}
}

func TestSolveStatsReported(t *testing.T) {
	u := expr.NewUniverse(4)
	a := expr.V("a", expr.IntType)
	b := expr.V("b", expr.IntType)
	_, stats, err := SolveCtx(context.Background(), u, []*expr.Var{a, b},
		expr.Eq(expr.Add(a, b), expr.IntC(u, 42)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SATVars == 0 || stats.Clauses == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestSolveBruteLimit(t *testing.T) {
	u := expr.NewUniverse(8)
	vars := []*expr.Var{
		expr.V("a", expr.IntType), expr.V("b", expr.IntType),
		expr.V("c", expr.IntType), expr.V("d", expr.IntType),
	}
	f := expr.Eq(vars[0], vars[1])
	if _, err := SolveBrute(u, vars, f, 1000); err == nil {
		t.Error("expected domain-size error")
	}
}
