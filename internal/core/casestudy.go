package core

import (
	"context"
	"fmt"
	"time"

	"transit/internal/efsm"
	"transit/internal/engine"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/synth"
)

// CaseStudy scripts the paper's iterative protocol-development workflow:
// start from an initial snippet set, synthesize a complete protocol, model
// check it, and — where the paper's programmer would study the
// counterexample and write a corrective snippet — apply the next scripted
// fix batch. The Table 5 metrics (snippets added, iterations to
// convergence, synthesis time) fall out of the replay.
type CaseStudy struct {
	Name string
	// Build constructs a fresh skeleton, its vocabulary, and invariants.
	Build func() (*efsm.System, *expr.Vocabulary, []mc.Invariant, error)
	// Initial is the first snippet set (the transcription of the textbook
	// or paper description).
	Initial []*efsm.Snippet
	// Fixes are the scripted debugging iterations, applied one batch per
	// model-checking failure.
	Fixes []FixBatch
	// MCOpts bounds each model-checking run.
	MCOpts mc.Options
	// Limits bounds expression inference.
	Limits synth.Limits
}

// FixBatch is one debugging iteration's worth of corrective snippets.
type FixBatch struct {
	// Label describes the symptom being fixed (for the narrative log).
	Label    string
	Snippets []*efsm.Snippet
}

// IterationResult records one specify→synthesize→check round.
type IterationResult struct {
	// Index is 1-based.
	Index int
	// SnippetsAdded in this round (the initial set for round 1).
	SnippetsAdded int
	// SnippetsTotal after this round.
	SnippetsTotal int
	FixLabel      string
	Synth         *Report
	Check         *mc.Result
	// Violation is nil when the round verified cleanly.
	Violation *mc.Violation
}

// CaseStudyResult aggregates a full replay.
type CaseStudyResult struct {
	Name       string
	Iterations []IterationResult
	// Converged is true when the final round model checked cleanly.
	Converged bool
	// FinalStates is the verified protocol's reachable state count.
	FinalStates int
	// FinalTransitions is the number of completed EFSM transitions.
	FinalTransitions int
	TotalSnippets    int
	Elapsed          time.Duration
	// Sys is the final completed system (for inspection/regeneration).
	Sys *efsm.System
}

// RunCaseStudyCtx replays a scripted case study. It errors if the fix
// script runs out while the model checker still finds violations — a
// regression in either the protocol snippets or the toolchain.
// Cancellation stops the in-flight synthesis or model-checking round,
// and the context's observability state (tracer, metrics) is threaded
// through both. Every iteration of one replay completes through one memo
// cache, so a hole an earlier iteration solved is answered from it; a hit
// replays the stored stats, so the iteration's Report counters other than
// CacheHits and CacheMisses, and its ledger, are those of a fresh cache.
// The cache lives for the call: every replay starts cold.
func RunCaseStudyCtx(ctx context.Context, cs CaseStudy) (*CaseStudyResult, error) {
	start := time.Now()
	res := &CaseStudyResult{Name: cs.Name}
	cache := engine.NewCache()
	snippets := append([]*efsm.Snippet(nil), cs.Initial...)
	nextFix := 0
	added := len(cs.Initial)
	fixLabel := "initial transcription"

	for iter := 1; ; iter++ {
		sys, vocab, invs, err := cs.Build()
		if err != nil {
			return res, fmt.Errorf("core: case study %s: build: %w", cs.Name, err)
		}
		rep, err := CompleteCtx(ctx, sys, vocab, snippets, Options{Limits: cs.Limits, Cache: cache})
		if err != nil {
			return res, fmt.Errorf("core: case study %s iteration %d: synthesis: %w", cs.Name, iter, err)
		}
		rt, err := efsm.NewRuntime(sys)
		if err != nil {
			return res, fmt.Errorf("core: case study %s iteration %d: %w", cs.Name, iter, err)
		}
		check, err := mc.CheckCtx(ctx, rt, invs, cs.MCOpts)
		if err != nil {
			return res, fmt.Errorf("core: case study %s iteration %d: model check: %w", cs.Name, iter, err)
		}
		ir := IterationResult{
			Index:         iter,
			SnippetsAdded: added,
			SnippetsTotal: len(snippets),
			FixLabel:      fixLabel,
			Synth:         rep,
			Check:         check,
			Violation:     check.Violation,
		}
		res.Iterations = append(res.Iterations, ir)
		if check.OK {
			res.Converged = true
			res.FinalStates = check.States
			res.FinalTransitions = rep.Transitions
			res.TotalSnippets = len(snippets)
			res.Elapsed = time.Since(start)
			res.Sys = sys
			return res, nil
		}
		if nextFix >= len(cs.Fixes) {
			res.Elapsed = time.Since(start)
			return res, fmt.Errorf("core: case study %s: fixes exhausted after iteration %d; last violation:\n%s",
				cs.Name, iter, check.Violation)
		}
		fix := cs.Fixes[nextFix]
		nextFix++
		snippets = append(snippets, fix.Snippets...)
		added = len(fix.Snippets)
		fixLabel = fix.Label
	}
}
