package smt

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"transit/internal/expr"
)

// answer is one query's full outcome, compared across pool states.
type answer struct {
	res   Result
	stats Stats
	err   error
}

func solveAnswer(u *expr.Universe, vars []*expr.Var, f expr.Expr, opts Options) answer {
	res, stats, err := SolveStats(u, vars, f, opts)
	return answer{res, stats, err}
}

// reuseQueries returns a small query and a larger one on another universe.
// They share their *expr.Var nodes, so an encoder whose node cache
// survived the larger query would hand the small one stale bit vectors.
func reuseQueries() (small, large func() answer) {
	a, b, s := expr.V("a", expr.IntType), expr.V("b", expr.IntType), expr.V("s", expr.SetType)
	u3 := expr.NewUniverse(3)
	smallF := expr.And(expr.Gt(a, b), expr.Eq(expr.Add(a, b), expr.IntC(u3, 3)), expr.Ge(expr.Card(s), expr.IntC(u3, 2)))
	u5, err := expr.NewUniverseWidth(5, 6)
	if err != nil {
		panic(err)
	}
	p := expr.V("p", expr.PIDType)
	largeF := expr.And(expr.Gt(expr.Add(a, a), expr.Sub(b, expr.IntC(u5, 7))), expr.SetContains(s, p),
		expr.Eq(expr.Card(s), expr.Add(a, expr.IntC(u5, 1))), expr.Not(expr.Eq(a, b)))
	hint := expr.Env{"a": expr.IntVal(u3, 1)}
	small = func() answer { return solveAnswer(u3, []*expr.Var{a, b, s}, smallF, Options{Hint: hint}) }
	large = func() answer {
		return solveAnswer(u5, []*expr.Var{s, p, b, a}, largeF, Options{MaxConflicts: 3})
	}
	return small, large
}

// TestPooledReuseInvisible: a query answers the same on a fresh pool as
// right after a larger query on another universe left the pooled encoder
// dirty — same Result, same Stats.
func TestPooledReuseInvisible(t *testing.T) {
	// Two collections empty the pool (the second drops its victim
	// cache), so the first query below gets a new encoder.
	runtime.GC()
	runtime.GC()
	small, large := reuseQueries()
	want := small()
	if want.err != nil || want.res.Status != Sat {
		t.Fatalf("small query: %+v", want)
	}
	for round := 0; round < 3; round++ {
		if got := large(); got.err != nil {
			t.Fatalf("large query: %v", got.err)
		}
		if got := small(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: after a larger query\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// TestReleaseEmptiesEncoder: a released encoder pins no expression or
// name and carries no solver state, budget or interrupt into the pool.
func TestReleaseEmptiesEncoder(t *testing.T) {
	u := expr.NewUniverse(2)
	e, err := newEncoder(u, []*expr.Var{expr.V("x", expr.IntType)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.encode(expr.Inc(expr.V("x", expr.IntType))); err != nil {
		t.Fatal(err)
	}
	e.s.MaxConflicts = 5
	e.s.Interrupt = make(chan struct{})
	e.release()
	if len(e.cache) != 0 || len(e.vars) != 0 || e.u != nil || e.numClauses != 0 || len(e.slab) != 0 {
		t.Errorf("released encoder keeps cache %d, vars %d, universe %v, clauses %d, slab %d",
			len(e.cache), len(e.vars), e.u, e.numClauses, len(e.slab))
	}
	if e.s.NumVars() != 0 || e.s.MaxConflicts != 0 || e.s.Interrupt != nil {
		t.Errorf("released solver keeps %d vars, budget %d, interrupt %v", e.s.NumVars(), e.s.MaxConflicts, e.s.Interrupt)
	}
}

// TestConcurrentQueries runs the same queries from four goroutines at once,
// as the engine's workers do, and each must get the sequential answer.
// Run it under -race.
func TestConcurrentQueries(t *testing.T) {
	small, large := reuseQueries()
	queries := []func() answer{small, large}
	u := expr.NewUniverse(3)
	vars := []*expr.Var{expr.V("i", expr.IntType), expr.V("p", expr.PIDType), expr.V("s", expr.SetType)}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	rng := rand.New(rand.NewSource(4))
	for len(queries) < 24 {
		f, err := expr.RandomExpr(u, rng, voc, vars, expr.BoolType, 12)
		if err != nil {
			continue
		}
		queries = append(queries, func() answer { return solveAnswer(u, vars, f, Options{}) })
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i] = q()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for k := range queries {
					i := (k + g*7) % len(queries)
					if got := queries[i](); !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Sprintf("goroutine %d: query %d differs from its sequential answer", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// budgetFormulas returns seeded random formulas over four 6-bit Ints whose
// canonical models take probes with conflicts.
func budgetFormulas() (*expr.Universe, []*expr.Var, []expr.Expr) {
	u, err := expr.NewUniverseWidth(3, 6)
	if err != nil {
		panic(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	vars := []*expr.Var{expr.V("a", expr.IntType), expr.V("b", expr.IntType), expr.V("c", expr.IntType), expr.V("d", expr.IntType)}
	var fs []expr.Expr
	for seed := int64(1); seed <= 30; seed++ {
		if f, err := expr.RandomExpr(u, rand.New(rand.NewSource(seed)), voc, vars, expr.BoolType, 25); err == nil {
			fs = append(fs, f)
		}
	}
	return u, vars, fs
}

// TestConflictBudgetBoundsWholeQuery: under MaxConflicts K a query —
// search and canonicalization probes together — reports at most K
// conflicts, and whenever it answers, it gives the unbounded answer.
func TestConflictBudgetBoundsWholeQuery(t *testing.T) {
	u, vars, fs := budgetFormulas()
	cut := 0 // queries whose probes, not the first search, ran out
	for _, f := range fs {
		full, fullStats, err := SolveStats(u, vars, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(1); k <= fullStats.Conflicts; k++ {
			res, stats, err := SolveStats(u, vars, f, Options{MaxConflicts: k})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Conflicts > k {
				t.Fatalf("%s: %d conflicts under MaxConflicts %d", f, stats.Conflicts, k)
			}
			if res.Status == Unknown {
				if stats.AssumptionSolves > 0 {
					cut++
				}
				continue
			}
			if !reflect.DeepEqual(res, full) {
				t.Fatalf("%s under MaxConflicts %d: %+v, unbounded %+v", f, k, res, full)
			}
		}
	}
	if cut == 0 {
		t.Fatal("no query ran out of budget in its probes; the formulas do not exercise the bound")
	}
}

// TestValidBudgetError: a validity check that runs out of conflicts fails
// with ErrConflictBudget.
func TestValidBudgetError(t *testing.T) {
	u, vars, fs := budgetFormulas()
	for _, f := range fs {
		_, stats, err := SolveStats(u, vars, expr.Not(f), Options{})
		if err != nil || stats.Conflicts < 2 {
			continue
		}
		if _, _, err := ValidOpt(u, vars, f, Options{MaxConflicts: 1}); !errors.Is(err, ErrConflictBudget) {
			t.Fatalf("%s: err = %v, want ErrConflictBudget", f, err)
		}
		return
	}
	t.Fatal("no formula needs two conflicts")
}
