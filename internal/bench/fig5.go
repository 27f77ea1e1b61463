package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"transit/internal/expr"
	"transit/internal/synth"
)

// Fig5Point is one data point of Figure 5: the average number of
// expressions explored by SolveConcrete, Pruned and Exhaustive variants,
// for random targets of one size with ten consistent random examples.
type Fig5Point struct {
	Size int
	// PrunedAvg and ExhaustiveAvg are mean candidates enumerated.
	PrunedAvg     float64
	ExhaustiveAvg float64
	// ExhaustiveRan is false where the exhaustive variant is omitted
	// (the paper stops it past size 10 when it exceeds its memory
	// budget; we stop at the same size with an enumeration cap).
	ExhaustiveRan bool
	// ExhaustiveCapped marks sizes where at least one exhaustive trial
	// hit the enumeration cap without finding a consistent expression;
	// ExhaustiveAvg is then a lower bound (the paper's "exceeded the
	// memory limit" case).
	ExhaustiveCapped bool
	// Trials actually measured.
	Trials int
}

// Fig5Options configures the experiment.
type Fig5Options struct {
	// Sizes are the target expression sizes (paper: up to 15).
	Sizes []int
	// Trials per size (averaged).
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// MaxExhaustiveSize is the largest size the exhaustive variant runs
	// at (paper: 10).
	MaxExhaustiveSize int
	// ExhaustiveCap bounds exhaustive enumeration per trial.
	ExhaustiveCap int64
	// PrunedCap bounds pruned enumeration per trial.
	PrunedCap int64
}

// DefaultFig5Options mirrors the paper's setup at laptop scale.
func DefaultFig5Options() Fig5Options {
	sizes := make([]int, 0, 15)
	for s := 1; s <= 15; s++ {
		sizes = append(sizes, s)
	}
	return Fig5Options{
		Sizes: sizes, Trials: 3, Seed: 1,
		MaxExhaustiveSize: 10,
		ExhaustiveCap:     3_000_000,
		PrunedCap:         50_000_000,
	}
}

// Fig5Ctx runs the Figure 5 experiment: for each size, generate random
// target expressions over the coherence vocabulary, draw ten random
// consistent concrete examples, and run SolveConcreteCtx with and without
// indistinguishability pruning, counting candidates enumerated until a
// consistent expression is found. The context carries cancellation and
// the observability plumbing.
func Fig5Ctx(ctx context.Context, opts Fig5Options) ([]Fig5Point, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	// Full 8-bit integers: with narrow domains, ten random examples are
	// frequently satisfied by small coincidental expressions, which would
	// mask the pruning gap the figure demonstrates. SolveConcrete never
	// calls the SMT solver, so width is free here.
	u := expr.NewUniverse(3)
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	vars := []*expr.Var{
		expr.V("a", expr.IntType),
		expr.V("b", expr.IntType),
		expr.V("s", expr.SetType),
		expr.V("p", expr.PIDType),
	}
	outTypes := []expr.Type{expr.IntType, expr.BoolType, expr.SetType}

	var points []Fig5Point
	for _, size := range opts.Sizes {
		pt := Fig5Point{Size: size, ExhaustiveRan: size <= opts.MaxExhaustiveSize}
		var prunedSum, exSum float64
		for trial := 0; trial < opts.Trials; trial++ {
			outType := outTypes[rng.Intn(len(outTypes))]
			target, err := expr.RandomExpr(u, rng, voc, vars, outType, size)
			if err != nil {
				return nil, fmt.Errorf("bench: no random target of type %s size %d: %w", outType, size, err)
			}
			// Ten consistent random examples, per the paper.
			exs := make([]synth.ConcreteExample, 10)
			for i := range exs {
				env := expr.RandomEnv(u, rng, vars)
				exs[i] = synth.ConcreteExample{S: env, Out: target.Eval(u, env)}
			}
			prob := synth.Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", outType)}
			_, pstats, err := synth.SolveConcreteCtx(ctx, prob, exs, synth.Limits{
				MaxSize: size + 2, MaxExprs: opts.PrunedCap,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: pruned size %d trial %d: %w", size, trial, err)
			}
			prunedSum += float64(pstats.Enumerated)
			if pt.ExhaustiveRan {
				_, estats, err := synth.SolveConcreteCtx(ctx, prob, exs, synth.Limits{
					MaxSize: size + 2, MaxExprs: opts.ExhaustiveCap, NoPrune: true,
				})
				if err != nil {
					if !errors.Is(err, synth.ErrNoExpression) {
						return nil, fmt.Errorf("bench: exhaustive size %d trial %d: %w", size, trial, err)
					}
					// Cap hit: record the lower bound, like the paper's
					// memory-limit cutoff.
					pt.ExhaustiveCapped = true
				}
				exSum += float64(estats.Enumerated)
			}
			pt.Trials++
		}
		pt.PrunedAvg = prunedSum / float64(pt.Trials)
		if pt.ExhaustiveRan {
			pt.ExhaustiveAvg = exSum / float64(pt.Trials)
		}
		points = append(points, pt)
	}
	return points, nil
}
