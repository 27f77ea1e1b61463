package synth

import (
	"context"
	"testing"

	"transit/internal/expr"
	"transit/internal/obs"
)

// benchProblem is the Table 3 max-of-two inference — the pipeline's
// bread-and-butter workload, mixing enumeration with SMT checks.
func benchProblem(b *testing.B) (Problem, []ConcolicExample) {
	b.Helper()
	a, bb := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		b.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, bb}, Output: o}
	exs := []ConcolicExample{
		{Pre: expr.Gt(a, bb), Post: expr.Eq(o, a)},
		{Pre: expr.Gt(bb, a), Post: expr.Eq(o, bb)},
	}
	return p, exs
}

// BenchmarkSolveConcolicDisabled measures the baseline with observability
// off — the context carries no tracer and no registry, so every
// obs.Start is one context lookup plus a nil branch. Compare against
// BenchmarkSolveConcolicTraced to bound the instrumentation overhead
// (acceptance: < 2% with tracing disabled vs. the pre-obs code, which
// this benchmark tracks over time).
func BenchmarkSolveConcolicDisabled(b *testing.B) {
	p, exs := benchProblem(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveConcolicCtx(ctx, p, exs, Limits{MaxSize: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveConcolicTraced is the same workload with a collecting
// tracer and live metrics registry attached.
func BenchmarkSolveConcolicTraced(b *testing.B) {
	p, exs := benchProblem(b)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(obs.NewCollect()))
	ctx = obs.WithMetrics(ctx, obs.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveConcolicCtx(ctx, p, exs, Limits{MaxSize: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCEGIS measures a whole CEGIS solve: enumeration plus one
// one-shot SMT query per consistency check and concretization.
func BenchmarkCEGIS(b *testing.B) {
	p, exs := benchProblem(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveConcolicCtx(ctx, p, exs, Limits{MaxSize: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveConcreteDisabled isolates the enumerator (no SMT), where
// per-candidate overhead would show up most.
func BenchmarkSolveConcreteDisabled(b *testing.B) {
	p, _ := benchProblem(b)
	a, bb := p.Vars[0], p.Vars[1]
	exs := []ConcreteExample{
		{S: expr.Env{a.Name: expr.IntVal(p.U, 3), bb.Name: expr.IntVal(p.U, 1)}, Out: expr.IntVal(p.U, 3)},
		{S: expr.Env{a.Name: expr.IntVal(p.U, 2), bb.Name: expr.IntVal(p.U, 5)}, Out: expr.IntVal(p.U, 5)},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveConcreteCtx(ctx, p, exs, Limits{MaxSize: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
