// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; EXPERIMENTS.md records the
// shapes that must match the paper (who wins, by what order of magnitude,
// where costs grow).
package transit_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"transit"
	"transit/internal/bench"
	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// BenchmarkTable2MaxConcolic measures the full CEGIS loop on the Table 2
// walk-through: max(a, b) from the functional specification.
func BenchmarkTable2MaxConcolic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Table2Ctx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 measures each short Table 3 inference benchmark.
func BenchmarkTable3(b *testing.B) {
	for _, bm := range bench.Table3Benchmarks() {
		if bm.Long {
			continue
		}
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := expr.NewUniverseWidth(3, 4)
				if err != nil {
					b.Fatal(err)
				}
				prob, exs := bm.Build(u)
				if _, _, err := synth.SolveConcolicCtx(context.Background(), prob, exs, synth.Limits{MaxSize: bm.ExpectedSize + 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fig5Instance pre-generates one Figure 5 trial: a random target of the
// given size and ten consistent examples.
func fig5Instance(b *testing.B, size int) (synth.Problem, []synth.ConcreteExample) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(size) * 7919))
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		b.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	vars := []*expr.Var{
		expr.V("a", expr.IntType), expr.V("b", expr.IntType),
		expr.V("s", expr.SetType), expr.V("p", expr.PIDType),
	}
	target, err := expr.RandomExpr(u, rng, voc, vars, expr.IntType, size)
	if err != nil {
		b.Fatal(err)
	}
	exs := make([]synth.ConcreteExample, 10)
	for i := range exs {
		env := expr.RandomEnv(u, rng, vars)
		exs[i] = synth.ConcreteExample{S: env, Out: target.Eval(u, env)}
	}
	prob := synth.Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", expr.IntType)}
	return prob, exs
}

// BenchmarkFig5Pruned measures SolveConcrete with indistinguishability
// pruning at several target sizes (the paper's "Pruned" series).
func BenchmarkFig5Pruned(b *testing.B) {
	for _, size := range []int{4, 8, 12} {
		prob, exs := fig5Instance(b, size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := synth.SolveConcreteCtx(context.Background(), prob, exs, synth.Limits{MaxSize: size + 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Exhaustive measures the unpruned variant (the paper's
// "Exhaustive" series, which it stops past size 10).
func BenchmarkFig5Exhaustive(b *testing.B) {
	for _, size := range []int{4, 8} {
		prob, exs := fig5Instance(b, size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := synth.SolveConcreteCtx(context.Background(), prob, exs, synth.Limits{
					MaxSize: size + 2, NoPrune: true, MaxExprs: 50_000_000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProtocol measures whole-protocol synthesis plus model checking for
// a Table 4 row.
func benchProtocol(b *testing.B, build func() *protocols.Spec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		spec := build()
		if _, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
			b.Fatal(err)
		}
		rt, err := efsm.NewRuntime(spec.Sys)
		if err != nil {
			b.Fatal(err)
		}
		res, err := mc.CheckCtx(context.Background(), rt, spec.Invariants, mc.Options{MaxStates: 4_000_000, CheckDeadlock: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("violation:\n%v", res.Violation)
		}
	}
}

// BenchmarkTable4VI is the VI row of Table 4 (synthesis + model checking).
func BenchmarkTable4VI(b *testing.B) {
	benchProtocol(b, func() *protocols.Spec { return protocols.VI(3) })
}

// BenchmarkTable4MSI is the MSI row of Table 4.
func BenchmarkTable4MSI(b *testing.B) {
	benchProtocol(b, func() *protocols.Spec { return protocols.MSI(3) })
}

// BenchmarkTable5 measures the scripted case-study replays (one sub-bench
// per §6 case study).
func BenchmarkTable5(b *testing.B) {
	studies := map[string]func(int) transit.CaseStudy{
		"A-MSI":    protocols.CaseStudyA,
		"B-MESI":   protocols.CaseStudyB,
		"C-Origin": protocols.CaseStudyC,
	}
	for name, mk := range studies {
		mk := mk
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunCaseStudyCtx(context.Background(), mk(2))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// BenchmarkAnecdote measures the §2 anecdote pipeline: buggy synthesis,
// violation discovery, fixed synthesis, clean verification.
func BenchmarkAnecdote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buggy := transit.Origin(2, false)
		if _, err := transit.Synthesize(buggy, transit.SynthesisOptions{Limits: transit.Limits{MaxSize: 12}}); err != nil {
			b.Fatal(err)
		}
		res, err := transit.Verify(buggy, transit.VerifyOptions{MaxStates: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if res.OK {
			b.Fatal("expected a violation")
		}
		fixed := transit.Origin(2, true)
		if _, err := transit.Synthesize(fixed, transit.SynthesisOptions{Limits: transit.Limits{MaxSize: 12}}); err != nil {
			b.Fatal(err)
		}
		res, err = transit.Verify(fixed, transit.VerifyOptions{MaxStates: 2_000_000, CheckDeadlock: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal("fixed protocol must verify")
		}
	}
}
