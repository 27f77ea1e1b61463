package main

import (
	"context"
	"fmt"
	"time"

	"transit/internal/bench"
	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/obs"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// A workload is one closed loop over the paper's fixed inputs: setup
// builds the ops, and each pass runs every op once, one at a time, in an
// order the seed shuffles. Every op goes through the public entry point a
// user of the transit CLIs reaches, with the CLI defaults (one inference
// worker, sequential enumeration, no portfolio, symmetry reduction on,
// the default GOMAXPROCS) except one: the model checker runs one worker,
// not nproc. Its workers meet at a barrier every BFS level, so on a
// shared 2-vCPU host a stall of either vCPU stalls the op, and the
// single-thread host kernel cannot see the other vCPU; one worker
// measures the per-state cost that the checker's open items target.
type workload struct {
	name  string
	setup func(ctx context.Context) ([]op, error)
}

// mcWorkers is the model checker's worker count in every workload.
const mcWorkers = 1

// An op is one operation of the closed loop. run makes the op's calls
// into the system and returns the oracle for their answer; the harness
// times run alone, then counts the op failed if run errs or the oracle
// rejects the answer.
type op struct {
	name string
	run  func(ctx context.Context) (oracle func() error, st opStats, err error)
	// probe, set on check ops, walks the op's protocol for the efsm probe.
	probe func(pr *probeResult) error
}

// opStats carries what an op's return values say about the layers it
// went through, for the per-layer metrics.
type opStats struct {
	// states and check are mc.Result.States and the wall time of
	// mc.CheckCtx (check workload).
	states int
	check  time.Duration
	// complete sums core.IterationResult.Synth.Elapsed (casestudy).
	complete time.Duration
}

var workloads = []workload{
	{name: "infer", setup: inferSetup},
	{name: "casestudy", setup: casestudySetup},
	{name: "check", setup: checkSetup},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// call runs f under a benchmark-owned span named bench.<pkg>.<Func>, so a
// traced op charges the call to its layer even where the layer starts no
// span of its own. Without a tracer in ctx the span is a no-op.
func call[T any](ctx context.Context, name string, f func(context.Context) (T, error)) (T, error) {
	ctx, span := obs.Start(ctx, name)
	defer span.End()
	return f(ctx)
}

func solve(ctx context.Context, p synth.Problem, exs []synth.ConcolicExample, limits synth.Limits) (expr.Expr, error) {
	return call(ctx, "bench.synth.SolveConcolicCtx", func(ctx context.Context) (expr.Expr, error) {
		e, _, err := synth.SolveConcolicCtx(ctx, p, exs, limits)
		return e, err
	})
}

// table3Problem builds a Table 3 row the way bench.Table3Ctx does.
func table3Problem(b bench.Table3Benchmark) (synth.Problem, []synth.ConcolicExample, error) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		return synth.Problem{}, nil, err
	}
	p, exs := b.Build(u)
	return p, exs, nil
}

func inferSetup(context.Context) ([]op, error) {
	var ops []op
	for _, b := range bench.Table3Benchmarks() {
		if b.Long {
			continue
		}
		p, exs, err := table3Problem(b)
		if err != nil {
			return nil, err
		}
		limits := synth.Limits{MaxSize: b.ExpectedSize + 2}
		ops = append(ops, op{name: b.Name, run: func(ctx context.Context) (func() error, opStats, error) {
			e, err := solve(ctx, p, exs, limits)
			if err != nil {
				return nil, opStats{}, err
			}
			return func() error { return verifyConsistent(p, e, exs) }, opStats{}, nil
		}})
	}
	return ops, nil
}

// studyWant pins what each Table 5 case study converges to at 3 caches.
type studyWant struct {
	iterations, snippets, states int
}

func casestudySetup(context.Context) ([]op, error) {
	studies := []struct {
		name  string
		build func(int) core.CaseStudy
		want  studyWant
	}{
		{"A", protocols.CaseStudyA, studyWant{6, 39, 6082}},
		{"B", protocols.CaseStudyB, studyWant{4, 49, 4224}},
		{"C", protocols.CaseStudyC, studyWant{2, 52, 3697}},
	}
	var ops []op
	for _, s := range studies {
		ops = append(ops, op{name: "study-" + s.name, run: func(ctx context.Context) (func() error, opStats, error) {
			cs, _ := call(ctx, "bench.protocols.CaseStudy"+s.name, func(context.Context) (core.CaseStudy, error) {
				return s.build(3), nil
			})
			cs.MCOpts.Workers = mcWorkers
			cs.MCOpts.SymmetryReduction = true
			res, err := call(ctx, "bench.core.RunCaseStudyCtx", func(ctx context.Context) (*core.CaseStudyResult, error) {
				return core.RunCaseStudyCtx(ctx, cs)
			})
			if err != nil {
				return nil, opStats{}, err
			}
			var st opStats
			for _, it := range res.Iterations {
				st.complete += it.Synth.Elapsed
			}
			return func() error { return checkStudy(res, s.want) }, st, nil
		}})
	}
	return ops, nil
}

func checkStudy(res *core.CaseStudyResult, want studyWant) error {
	got := studyWant{len(res.Iterations), res.TotalSnippets, res.FinalStates}
	if !res.Converged || got != want {
		return fmt.Errorf("case study %s: converged=%v iterations/snippets/states=%v, want %v",
			res.Name, res.Converged, got, want)
	}
	return nil
}

// checkRow is one protocol instance the check workload verifies. states
// pins the explored state count (canonical states on reduced rows).
type checkRow struct {
	name     string
	spec     func() *protocols.Spec
	symmetry bool
	states   int
}

// The plain VI row takes canonicalization out of the op, so a change to
// state encoding and a change to canonicalization show apart; VI at n=5
// shows canonicalization cost growing with n!, and as the cheapest row it
// comes first, the warm-up op of set-up.
var checkRows = []checkRow{
	{"vi-n5-reduced", func() *protocols.Spec { return protocols.VI(5) }, true, 20665},
	{"msi-n4-reduced", func() *protocols.Spec { return protocols.MSI(4) }, true, 63470},
	{"mesi-n4-reduced", func() *protocols.Spec { return protocols.MESI(4) }, true, 44604},
	{"origin-n4-reduced", func() *protocols.Spec { return protocols.Origin(4, true) }, true, 33424},
	{"vi-n4-plain", func() *protocols.Spec { return protocols.VI(4) }, false, 71168},
}

// checkSetup completes each row's protocol the way the transit CLI does
// by default (-max-size 12, one worker); the ops only check it.
func checkSetup(ctx context.Context) ([]op, error) {
	var ops []op
	for _, r := range checkRows {
		spec := r.spec()
		if _, err := core.CompleteCtx(ctx, spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
			return nil, fmt.Errorf("completing %s: %w", r.name, err)
		}
		opts := mc.Options{MaxStates: 8_000_000, CheckDeadlock: true,
			Workers: mcWorkers, SymmetryReduction: r.symmetry}
		ops = append(ops, op{name: r.name, run: func(ctx context.Context) (func() error, opStats, error) {
			rt, err := call(ctx, "bench.efsm.NewRuntime", func(context.Context) (*efsm.Runtime, error) {
				return efsm.NewRuntime(spec.Sys)
			})
			if err != nil {
				return nil, opStats{}, err
			}
			t0 := time.Now()
			res, err := call(ctx, "bench.mc.CheckCtx", func(ctx context.Context) (*mc.Result, error) {
				return mc.CheckCtx(ctx, rt, spec.Invariants, opts)
			})
			d := time.Since(t0)
			if err != nil {
				return nil, opStats{}, err
			}
			return func() error { return checkResult(r, res) }, opStats{states: res.States, check: d}, nil
		}, probe: func(pr *probeResult) error {
			rt, err := efsm.NewRuntime(spec.Sys)
			if err != nil {
				return err
			}
			return pr.walk(rt, spec.Invariants, r.symmetry)
		}})
	}
	return ops, nil
}

func checkResult(r checkRow, res *mc.Result) error {
	if !res.OK || !res.Complete || res.States != r.states {
		return fmt.Errorf("%s: ok=%v complete=%v states=%d, want a complete pass over %d states",
			r.name, res.OK, res.Complete, res.States, r.states)
	}
	return nil
}

// verifyConsistent brute-force checks a found expression against the
// concolic examples over the full domains of the problem's variables:
// the oracle is independent of the SMT layer that accepted the answer.
func verifyConsistent(p synth.Problem, e expr.Expr, exs []synth.ConcolicExample) error {
	var rec func(i int, env expr.Env) error
	rec = func(i int, env expr.Env) error {
		if i == len(p.Vars) {
			out := env.Clone()
			out[p.Output.Name] = e.Eval(p.U, env)
			for _, c := range exs {
				if c.Pre.Eval(p.U, env).Bool() && !c.Post.Eval(p.U, out).Bool() {
					return fmt.Errorf("expression %s is inconsistent at %v", e, env)
				}
			}
			return nil
		}
		for _, v := range expr.ValuesOf(p.U, p.Vars[i].VT) {
			env[p.Vars[i].Name] = v
			if err := rec(i+1, env); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, expr.Env{})
}
