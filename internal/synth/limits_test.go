package synth

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"transit/internal/expr"
	"transit/internal/smt"
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

// TestSMTConflictBudgetTyped: a solve whose SMT query runs out of
// conflicts fails with an error wrapping smt.ErrConflictBudget, and not as
// a search that found no expression.
func TestSMTConflictBudgetTyped(t *testing.T) {
	prob, spec := maxProblem()
	_, _, err := SolveConcolic(prob, spec, Limits{MaxSize: 8, SMTConflicts: 1})
	if !errors.Is(err, smt.ErrConflictBudget) {
		t.Fatalf("err = %v, want wrapped smt.ErrConflictBudget", err)
	}
	if errors.Is(err, ErrNoExpression) {
		t.Error("an exhausted SMT budget must not be reported as search exhaustion")
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

// max3Problem is Table 3's max-of-three row: every round of its CEGIS run
// grows the pools, and the rounds from the eighth on take seconds.
func max3Problem(t *testing.T) (Problem, []ConcolicExample) {
	t.Helper()
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b, c := expr.V("a", expr.IntType), expr.V("b", expr.IntType), expr.V("c", expr.IntType)
	o := expr.V("o", expr.IntType)
	return Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b, c}, Output: o}, []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b), expr.Ge(o, c),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b), expr.Eq(o, c))),
	}}
}

// TestTimeoutBoundsWholeCall pins that Limits.Timeout bounds the whole
// SolveConcolic call, every CEGIS round included, and that running out of
// it is a typed ErrTimeout. The clock is replaced by one that moves a
// fixed step at every read, so the test counts deadline polls instead of
// timing the call: the call must end at the first poll that finds the
// deadline passed, wherever that poll is (before a round, before a walk,
// or inside one). A clock that restarts with every round lets max3 poll
// on through round after round.
func TestTimeoutBoundsWholeCall(t *testing.T) {
	p, exs := max3Problem(t)
	const step = time.Millisecond
	reads := 0
	t0 := time.Now()
	defer func(real func() time.Time) { now = real }(now)
	now = func() time.Time {
		reads++
		return t0.Add(time.Duration(reads-1) * step)
	}
	for _, c := range []struct {
		timeout   time.Duration
		minRounds int
	}{
		// The deadline passes some way into max3's rounds, which poll
		// every 4096 candidates.
		{300 * step, 8},
		// A deadline past at the first poll starts no round, although
		// max3's first rounds enumerate too few candidates to poll.
		{step / 2, 0},
	} {
		reads = 0
		limits := Limits{MaxSize: 18, MaxExprs: math.MaxInt64, Timeout: c.timeout}
		_, st, err := SolveConcolicCtx(context.Background(), p, exs, limits)
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrNoExpression) {
			t.Fatalf("timeout %v: err = %v, want ErrTimeout wrapping ErrNoExpression", c.timeout, err)
		}
		// Read 1 starts the clock and read k returns t0 + (k-1)·step, so
		// the first read past the deadline is read timeout/step + 2.
		if want := int(c.timeout/step) + 2; reads != want {
			t.Errorf("timeout %v: the clock was read %d times, want %d: the call ran on past the first poll after its deadline (round %d)",
				c.timeout, reads, want, st.Iterations)
		}
		if c.minRounds == 0 && st.Iterations != 0 {
			t.Errorf("timeout %v: %d rounds started, want none", c.timeout, st.Iterations)
		}
		if st.Iterations < c.minRounds {
			t.Errorf("timeout %v: stopped in round %d, want at least %d", c.timeout, st.Iterations, c.minRounds)
		}
	}
}

// TestStopReasons pins the typed stop reason of each budget: every one
// wraps ErrNoExpression, so callers that only test for it are unchanged.
func TestStopReasons(t *testing.T) {
	ctx := context.Background()
	p, exs := maxConcrete(t)
	for _, c := range []struct {
		limits Limits
		want   error
	}{
		{Limits{MaxSize: 8, MaxExprs: 10}, ErrExprBudget},
		{Limits{MaxSize: 3}, ErrSizeBound},
	} {
		if _, _, err := SolveConcreteCtx(ctx, p, exs, c.limits); !errors.Is(err, c.want) || !errors.Is(err, ErrNoExpression) {
			t.Errorf("limits %+v: err = %v, want %v", c.limits, err, c.want)
		}
	}
	prob, spec := maxProblem()
	if _, _, err := SolveConcolicCtx(ctx, prob, spec, Limits{MaxSize: 8, MaxIters: 2}); !errors.Is(err, ErrIterBudget) {
		t.Errorf("two rounds: err = %v, want ErrIterBudget", err)
	}
}
