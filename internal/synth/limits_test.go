package synth

import (
	"context"
	"errors"
	"testing"
	"time"

	"transit/internal/expr"
)

func maxProblem() (Problem, []ConcolicExample) {
	u := expr.NewUniverse(3)
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	prob := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o}
	spec := []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
	}}
	return prob, spec
}

func TestWithDefaultsResolvesZeroFields(t *testing.T) {
	got := Limits{}.WithDefaults()
	want := Limits{MaxSize: DefaultMaxSize, MaxExprs: DefaultMaxExprs, MaxIters: DefaultMaxIters}
	if got != want {
		t.Errorf("Limits{}.WithDefaults() = %+v, want %+v", got, want)
	}
}

func TestWithDefaultsIdempotent(t *testing.T) {
	once := Limits{}.WithDefaults()
	if twice := once.WithDefaults(); twice != once {
		t.Errorf("WithDefaults not idempotent: %+v -> %+v", once, twice)
	}
}

func TestWithDefaultsPreservesExplicitFields(t *testing.T) {
	in := Limits{MaxSize: 7, MaxExprs: 123, MaxIters: 3,
		Timeout: time.Second, SMTConflicts: 9, NoPrune: true,
		NoBankReuse: true}
	if got := in.WithDefaults(); got != in {
		t.Errorf("WithDefaults clobbered explicit fields: %+v -> %+v", in, got)
	}
}

// TestZeroLimitsEqualExplicitDefaults is the regression test for the
// single-point-of-resolution contract: solving with Limits{} must do
// exactly the same work as solving with the spelled-out defaults.
func TestZeroLimitsEqualExplicitDefaults(t *testing.T) {
	prob, spec := maxProblem()
	eZero, sZero, err := SolveConcolic(prob, spec, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	eDef, sDef, err := SolveConcolic(prob, spec,
		Limits{MaxSize: DefaultMaxSize, MaxExprs: DefaultMaxExprs, MaxIters: DefaultMaxIters})
	if err != nil {
		t.Fatal(err)
	}
	if !expr.Equal(eZero, eDef) {
		t.Errorf("answers differ: %s vs %s", eZero, eDef)
	}
	if sZero.Iterations != sDef.Iterations || sZero.SMTQueries != sDef.SMTQueries ||
		sZero.Concrete.Enumerated != sDef.Concrete.Enumerated {
		t.Errorf("work differs: %+v vs %+v", sZero, sDef)
	}
}

func TestSolveConcolicCtxCancelled(t *testing.T) {
	prob, spec := maxProblem()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SolveConcolicCtx(ctx, prob, spec, Limits{MaxSize: 8})
	if err == nil {
		t.Fatal("cancelled solve must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
	if errors.Is(err, ErrNoExpression) {
		t.Error("cancellation must not be reported as search exhaustion")
	}
}

func TestSolveConcreteCtxCancelled(t *testing.T) {
	prob, spec := maxProblem()
	// Concretize the single example at a = 1, b = 2, o = 2.
	env := expr.Env{"a": expr.IntVal(prob.U, 1), "b": expr.IntVal(prob.U, 2)}
	concrete := []ConcreteExample{{S: env, Out: expr.IntVal(prob.U, 2)}}
	_ = spec
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SolveConcreteCtx(ctx, prob, concrete, Limits{MaxSize: 8})
	if err == nil {
		t.Fatal("cancelled enumeration must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}
