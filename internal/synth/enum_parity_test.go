package synth

import (
	"context"
	"errors"
	"testing"

	"transit/internal/expr"
)

// maxConcrete returns a concrete-example workload consistent with
// ite(gt(a, b), a, b) over the parity universe.
func maxConcrete(t testing.TB) (Problem, []ConcreteExample) {
	t.Helper()
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: expr.V("o", expr.IntType)}
	mk := func(av, bv, ov int64) ConcreteExample {
		return ConcreteExample{
			S:   expr.Env{"a": expr.IntVal(u, av), "b": expr.IntVal(u, bv)},
			Out: expr.IntVal(u, ov),
		}
	}
	return p, []ConcreteExample{mk(1, 2, 2), mk(3, 1, 3), mk(2, 2, 2), mk(0, 3, 3)}
}

// sameTrace asserts two CEGIS traces agree round by round: candidates,
// killers, witnesses, and concretized outputs.
func sameTrace(t *testing.T, want, got []IterRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trace length: %d vs %d", len(want), len(got))
	}
	for i := range want {
		wr, gr := want[i], got[i]
		if wr.Candidate != gr.Candidate || wr.KilledBy != gr.KilledBy ||
			wr.Witness != gr.Witness || wr.CounterOut != gr.CounterOut {
			t.Fatalf("iter %d: %+v vs %+v", i+1, wr, gr)
		}
	}
}

// TestBankReuseParity is the exact-parity guard for cross-iteration bank
// reuse: with and without NoBankReuse, CEGIS must produce identical traces
// and final expressions, and the reusing run must enumerate no more
// candidates than the restarting one.
func TestBankReuseParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range parityProblems(t) {
		t.Run(tc.name, func(t *testing.T) {
			restart := tc.limits
			restart.NoBankReuse = true
			reuseExpr, reuseStats, reuseErr := SolveConcolicCtx(ctx, tc.p, tc.examples, tc.limits)
			restExpr, restStats, restErr := SolveConcolicCtx(ctx, tc.p, tc.examples, restart)
			if (reuseErr == nil) != (restErr == nil) {
				t.Fatalf("error parity: reuse=%v restart=%v", reuseErr, restErr)
			}
			if reuseErr != nil {
				return
			}
			if reuseExpr.String() != restExpr.String() {
				t.Fatalf("result parity: reuse=%s restart=%s", reuseExpr, restExpr)
			}
			if reuseStats.Iterations != restStats.Iterations ||
				reuseStats.SMTQueries != restStats.SMTQueries {
				t.Fatalf("work parity: reuse %d iters/%d queries, restart %d/%d",
					reuseStats.Iterations, reuseStats.SMTQueries,
					restStats.Iterations, restStats.SMTQueries)
			}
			sameTrace(t, restStats.Trace, reuseStats.Trace)
			if restStats.BankReuses != 0 {
				t.Errorf("NoBankReuse run reports %d bank reuses", restStats.BankReuses)
			}
			// Rounds 1 and 2 never resume (no bank / degenerate bank);
			// every later round must, unless its bank was proven stale
			// up front, which makes the round a restart.
			resumed := 0
			for i, rec := range reuseStats.Trace {
				if rec.Resumed {
					resumed++
				}
				if i >= 2 && !rec.Resumed && !rec.Restarted {
					t.Errorf("round %d neither resumed nor restarted", i+1)
				}
			}
			if reuseStats.BankReuses != resumed {
				t.Errorf("bank reuses = %d, want %d resumed rounds", reuseStats.BankReuses, resumed)
			}
			// The refactor's point: when resumes stick (no stale-pool
			// fallbacks), the reusing run skips every rebuilt prefix. A
			// fallback round pays for both the futile resumed walk and the
			// restart, so its total is instead bounded loosely.
			if reuseStats.BankReuses > 0 && reuseStats.Concrete.Restarts == 0 &&
				reuseStats.Concrete.Enumerated >= restStats.Concrete.Enumerated {
				t.Errorf("bank reuse enumerated %d candidates, restart %d — no reuse win",
					reuseStats.Concrete.Enumerated, restStats.Concrete.Enumerated)
			}
			if reuseStats.Concrete.Enumerated > 4*restStats.Concrete.Enumerated {
				t.Errorf("bank reuse enumerated %d candidates, restart %d — fallback cost unbounded",
					reuseStats.Concrete.Enumerated, restStats.Concrete.Enumerated)
			}
			if restStats.Concrete.Restarts != 0 {
				t.Errorf("NoBankReuse run reports %d fallback restarts", restStats.Concrete.Restarts)
			}
		})
	}
}

// TestMaxExprsExactBudget is the regression test for the charge()
// off-by-one: a budget of exactly the winning candidate's index must
// still succeed, and a budget one short must fail.
func TestMaxExprsExactBudget(t *testing.T) {
	ctx := context.Background()
	p, exs := maxConcrete(t)
	want, full, err := SolveConcreteCtx(ctx, p, exs, Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := SolveConcreteCtx(ctx, p, exs, Limits{MaxSize: 8, MaxExprs: full.Enumerated})
	if err != nil {
		t.Fatalf("budget %d (the winner's index): %v", full.Enumerated, err)
	}
	if got.String() != want.String() || stats.Enumerated != full.Enumerated {
		t.Fatalf("got %s after %d, want %s after %d", got, stats.Enumerated, want, full.Enumerated)
	}
	if _, _, err := SolveConcreteCtx(ctx, p, exs,
		Limits{MaxSize: 8, MaxExprs: full.Enumerated - 1}); !errors.Is(err, ErrNoExpression) {
		t.Fatalf("budget one short: err = %v, want ErrNoExpression", err)
	}
}
