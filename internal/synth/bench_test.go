package synth

import (
	"context"
	"runtime"
	"testing"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/smt"
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

// max3Rounds is the CEGIS round after which BenchmarkMax3PoolBytes
// measures: the last round max3 completes inside its tier-13 pools.
const max3Rounds = 17

// BenchmarkMax3PoolBytes measures the pools' live heap per pooled entry on
// Table 3's max3 row (max of a, b, c, functional spec, MaxSize 18): it
// runs CEGIS rounds through cegisIteration, calls runtime.GC after each,
// and after round max3Rounds divides HeapAlloc by the number of entries in
// the bank's pools. One iteration takes tens of seconds; run it with
// -benchtime 1x.
func BenchmarkMax3PoolBytes(b *testing.B) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		b.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, bv, c := expr.V("a", expr.IntType), expr.V("b", expr.IntType), expr.V("c", expr.IntType)
	o := expr.V("o", expr.IntType)
	p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, bv, c}, Output: o}
	exs := []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, bv), expr.Ge(o, c),
			expr.Or(expr.Eq(o, a), expr.Eq(o, bv), expr.Eq(o, c))),
	}}
	limits := Limits{MaxSize: 18}.WithDefaults()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		be := newBackend(p, exs, smt.Options{MaxConflicts: limits.SMTConflicts})
		sc := newSchema(p)
		var (
			concrete []ConcreteExample
			bk       *bank
			stats    Stats
			ms       runtime.MemStats
			entries  int
		)
		for iter := 1; iter <= max3Rounds; iter++ {
			_, consistent, err := cegisIteration(ctx, sc, p, exs, &concrete, limits, time.Time{}, be, &stats, iter, &bk)
			if err != nil || consistent {
				b.Fatalf("round %d: consistent=%v err=%v", iter, consistent, err)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			entries = 0
			for _, tier := range bk.pools {
				for _, pool := range tier {
					entries += len(pool)
				}
			}
			b.Logf("round %d: %d candidates, %d pooled entries, %.1f MB live, %.0f B/entry",
				iter, stats.Concrete.Enumerated, entries, float64(ms.HeapAlloc)/(1<<20),
				float64(ms.HeapAlloc)/float64(entries))
		}
		b.ReportMetric(float64(ms.HeapAlloc)/float64(entries), "B/entry")
		b.ReportMetric(float64(entries), "entries")
	}
}
