// Package bench regenerates every table and figure of the paper's
// evaluation: the Table 2 CEGIS trace, the Table 3 expression-inference
// benchmarks, the Figure 5 pruned-vs-exhaustive enumeration comparison,
// the Table 4 protocol-synthesis throughput numbers, and the Table 5
// case-study workflow metrics. The cmd/transit-bench CLI and the
// repository's testing.B benchmarks both drive this package.
package bench

import (
	"context"
	"fmt"
	"time"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// Table2Ctx reruns the paper's Table 2: SolveConcolicCtx on
// true ⇒ (o ≥ a ∧ o ≥ b ∧ (o = a ∨ o = b)) with the coherence vocabulary,
// returning the final expression and the solve's stats, whose Trace is
// the table (FormatTable2 renders it). The context carries cancellation
// and the observability plumbing (see the obs package).
func Table2Ctx(ctx context.Context) (string, synth.Stats, error) {
	u := expr.NewUniverse(3)
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	prob := synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o}
	spec := []synth.ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
	}}
	e, stats, err := synth.SolveConcolicCtx(ctx, prob, spec, synth.Limits{MaxSize: 8})
	if err != nil {
		return "", stats, err
	}
	return e.String(), stats, nil
}

// Table4Row is one protocol's snippet-based-design throughput record.
type Table4Row struct {
	Protocol     string
	NumCaches    int
	Scenarios    int
	UpdatesSynth int
	UpdateExprs  int64
	UpdateTime   time.Duration
	GuardsSynth  int
	GuardExprs   int64
	GuardTime    time.Duration
	SynthTime    time.Duration
	States       int
	CheckTime    time.Duration
}

// CheckKnobs carries the model checker's tuning knobs (frontier worker
// fan-out and PID-symmetry reduction) through the table benchmarks that
// verify what they synthesize. The zero value reproduces the historical
// behaviour: one worker, no reduction.
type CheckKnobs struct {
	Workers  int
	Symmetry bool
}

// Table4Ctx transcribes the GEMS protocols (VI and MSI) into snippets,
// synthesizes them, and model checks the result with the knobs' checker
// configuration, reporting the paper's throughput metrics. The context
// carries cancellation and the observability plumbing.
func Table4Ctx(ctx context.Context, numCaches int, knobs CheckKnobs) ([]Table4Row, error) {
	specs := []*protocols.Spec{protocols.VI(numCaches), protocols.MSI(numCaches)}
	var rows []Table4Row
	for _, spec := range specs {
		rep, err := core.CompleteCtx(ctx, spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}})
		if err != nil {
			return nil, fmt.Errorf("bench: %s synthesis: %w", spec.Name, err)
		}
		rt, err := efsm.NewRuntime(spec.Sys)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := mc.CheckCtx(ctx, rt, spec.Invariants, mc.Options{
			MaxStates: 8_000_000, CheckDeadlock: true,
			Workers: knobs.Workers, SymmetryReduction: knobs.Symmetry,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s model check: %w", spec.Name, err)
		}
		if !res.OK {
			return nil, fmt.Errorf("bench: %s violates invariants:\n%v", spec.Name, res.Violation)
		}
		rows = append(rows, Table4Row{
			Protocol:     spec.Name,
			NumCaches:    numCaches,
			Scenarios:    rep.Snippets,
			UpdatesSynth: rep.UpdatesSynthesized,
			UpdateExprs:  rep.UpdateExprsTried,
			UpdateTime:   rep.UpdateTime,
			GuardsSynth:  rep.GuardsSynthesized,
			GuardExprs:   rep.GuardExprsTried,
			GuardTime:    rep.GuardTime,
			SynthTime:    rep.Elapsed,
			States:       res.States,
			CheckTime:    time.Since(t0),
		})
	}
	return rows, nil
}

// Table5Row is one case study's workflow metrics.
type Table5Row struct {
	Study           string
	InitialSnippets int
	AddedSnippets   int
	Iterations      int
	TotalSnippets   int
	Transitions     int
	FinalStates     int
	Elapsed         time.Duration
}

// Table5Ctx replays the three case studies and reports the
// effectiveness metrics of the iterative methodology. The knobs override
// each case study's model-checking options, so the scripted debugging
// loops verify with the same checker configuration the CLI was asked
// for. The context carries cancellation and the observability plumbing.
func Table5Ctx(ctx context.Context, numCaches int, knobs CheckKnobs) ([]Table5Row, error) {
	studies := []core.CaseStudy{
		protocols.CaseStudyA(numCaches),
		protocols.CaseStudyB(numCaches),
		protocols.CaseStudyC(numCaches),
	}
	var rows []Table5Row
	for _, cs := range studies {
		if knobs.Workers > 0 {
			cs.MCOpts.Workers = knobs.Workers
		}
		cs.MCOpts.SymmetryReduction = knobs.Symmetry
		res, err := core.RunCaseStudyCtx(ctx, cs)
		if err != nil {
			return nil, fmt.Errorf("bench: case study %s: %w", cs.Name, err)
		}
		row := Table5Row{
			Study:           res.Name,
			InitialSnippets: len(cs.Initial),
			AddedSnippets:   res.TotalSnippets - len(cs.Initial),
			Iterations:      len(res.Iterations),
			TotalSnippets:   res.TotalSnippets,
			Transitions:     res.FinalTransitions,
			FinalStates:     res.FinalStates,
			Elapsed:         res.Elapsed,
		}
		rows = append(rows, row)
	}
	return rows, nil
}
