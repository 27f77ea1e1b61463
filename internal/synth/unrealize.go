package synth

import (
	"context"
	"fmt"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
)

// Unrealizability detection: when the CEGIS loop exhausts its budget, the
// failure is ambiguous — the hole may be merely undiscovered (too-small
// limits, concretizations that stranded the search) or genuinely
// impossible. Distinguishing the two cheaply tells the caller whether a
// retry with larger limits could ever succeed.
//
// The check builds a semantic atlas of the vocabulary: it reruns the
// signature-table enumerator with EVERY valuation of the input variables
// as its examples, so two expressions share a signature class iff they
// denote the same function. Enumeration then has a sound fixpoint: once
// every tier up to maxArity·K+1 is complete — K being the
// largest tier that retained a new class — any expressible function
// already has a representative (replace each subterm of a witness
// expression by its class representative, inductively; the result is
// semantically identical and at most 1 + maxArity·K in size). Each
// output-typed representative's signature IS its value table, so
// spec-checking a class against the concolic examples is a pair of
// Boolean evaluations per valuation, no SMT involved. If no class is
// consistent, no expression of any size is: the hole is unrealizable.
//
// The check runs only on the exhaustion path (never on a solve that
// succeeds), never under Limits.NoPrune (its only gate, so it runs under
// NoBankReuse too), and under hard caps on the valuation count, class
// count, enumerated candidates, and wall clock; any cap overrun makes it
// inconclusive — the caller keeps its plain ErrNoExpression.

const (
	// unrealizableDomainCap bounds the materialized input valuations
	// (the cartesian product of the variable domains).
	unrealizableDomainCap = 512
	// unrealizableEvalCap bounds total evaluation work: candidates
	// enumerated × valuations per candidate.
	unrealizableEvalCap = 1 << 23
	// unrealizableSigCap bounds retained class storage: classes ×
	// valuations per signature.
	unrealizableSigCap = 1 << 18
	// unrealizableMaxSize bounds the closure horizon outright; a
	// vocabulary still minting new classes at this size is treated as
	// inconclusive.
	unrealizableMaxSize = 64
	// unrealizableTimeout bounds the check's wall clock.
	unrealizableTimeout = 2 * time.Second
)

// checkUnrealizable decides whether the exhausted hole is provably
// impossible. It returns a non-nil error (wrapping ErrUnrealizable and
// naming the hole's output variable) only on proof; every inconclusive
// outcome — domains too large, class space too rich, budget or context
// expired — returns nil and leaves the original exhaustion error in
// force. A nil return therefore never asserts realizability.
func checkUnrealizable(ctx context.Context, p Problem, examples []ConcolicExample, limits Limits,
	deadline time.Time, stats *Stats) error {
	if limits.NoPrune || len(examples) == 0 {
		return nil
	}
	envs := inputValuations(p)
	if envs == nil {
		return nil
	}
	_, span := obs.Start(ctx, "synth.unrealizable_check", obs.Int("valuations", len(envs)))
	proved := false
	defer func() {
		span.SetAttr(obs.Bool("proved", proved))
		span.End()
	}()

	al := limits
	al.NoBankReuse = true
	al.MaxExprs = unrealizableEvalCap / int64(len(envs))
	al.MaxSize = unrealizableMaxSize
	al.Timeout = unrealizableTimeout
	// The check spends at most unrealizableTimeout, and never runs past
	// the call's own deadline.
	atlasDeadline := deadlineOf(al)
	if !deadline.IsZero() && deadline.Before(atlasDeadline) {
		atlasDeadline = deadline
	}
	// The valuations are the atlas's examples; their outputs are never
	// compared (noGoal), so any value of the output type serves.
	exs := make([]ConcreteExample, len(envs))
	for i, env := range envs {
		exs[i] = ConcreteExample{S: env, Out: expr.ZeroOf(p.Output.VT)}
	}
	en := newEnumerator(ctx, newSchema(p), p, exs, al, atlasDeadline, false)
	en.noGoal = true
	en.initFresh()

	maxArity := 0
	for _, f := range p.Vocab.Funcs() {
		if f.Arity() > maxArity {
			maxArity = f.Arity()
		}
	}
	classCap := int64(unrealizableSigCap / len(envs))
	// K is the largest tier that retained a new class; the closure
	// horizon maxArity·K+1 advances with it and the loop ends when the
	// current size passes the horizon without moving it.
	k := 0
	horizon := 1
	for size := 1; size <= horizon; size++ {
		if size >= len(en.pools) {
			return nil
		}
		keptBefore := en.stats.Kept
		en.stats.MaxSizeSeen = size
		if _, err := en.runSize(size, 0); err != nil {
			// Budget, timeout, or cancellation: inconclusive.
			return nil
		}
		if en.stats.Kept > classCap {
			return nil
		}
		if en.stats.Kept > keptBefore {
			k = size
			if h := maxArity*k + 1; h > horizon {
				horizon = h
			}
			if horizon > unrealizableMaxSize {
				return nil
			}
		}
	}

	// Closure reached: the output-typed representatives are exactly the
	// expressible functions. A class is consistent with the spec iff at
	// every valuation where an example's precondition holds, its
	// postcondition holds with the output bound to the class's value
	// there — the signature coordinate, decoded from its row, no
	// re-evaluation needed.
	outName := p.Output.Name
	out := &en.stores[en.outStore]
	sig := make([]expr.Value, len(envs))
	for s := 1; s < len(en.pools) && s <= horizon; s++ {
		for _, r := range en.pools[s][en.outStore] {
			row := out.row(r)
			for i := range sig {
				sig[i] = out.get(row[i*out.w:])
			}
			if classConsistent(p, examples, envs, sig) {
				return nil
			}
		}
	}
	proved = true
	stats.Unrealizable = true
	if reg := obs.MetricsFrom(ctx); reg != nil {
		reg.Counter("synth.unrealizable").Inc()
	}
	return fmt.Errorf("%w: hole %q: none of the vocabulary's %d expressible functions is consistent with the %d examples over all %d interpretations",
		ErrUnrealizable, outName, en.stats.Kept, len(examples), len(envs))
}

// inputValuations materializes every valuation of the input variables, or
// nil when the product exceeds unrealizableDomainCap (or there are no
// input variables to valuate, in which case signatures cannot separate
// functions and the atlas is meaningless).
func inputValuations(p Problem) []expr.Env {
	if len(p.Vars) == 0 {
		return nil
	}
	total := uint64(1)
	for _, v := range p.Vars {
		n := p.U.DomainSize(v.VT)
		if n == 0 || total*n > unrealizableDomainCap || total*n < total {
			return nil
		}
		total *= n
	}
	domains := make([][]expr.Value, len(p.Vars))
	for i, v := range p.Vars {
		domains[i] = expr.ValuesOf(p.U, v.VT)
	}
	envs := make([]expr.Env, 0, total)
	idx := make([]int, len(p.Vars))
	for {
		env := make(expr.Env, len(p.Vars)+1)
		for i, v := range p.Vars {
			env[v.Name] = domains[i][idx[i]]
		}
		envs = append(envs, env)
		j := len(idx) - 1
		for ; j >= 0; j-- {
			idx[j]++
			if idx[j] < len(domains[j]) {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			return envs
		}
	}
}

// classConsistent spec-checks one output-typed class: sig[i] is the
// class's value at envs[i]. The envs are private to the atlas, so binding
// the output variable into them in place is safe (each iteration
// overwrites the previous binding).
func classConsistent(p Problem, examples []ConcolicExample, envs []expr.Env, sig []expr.Value) bool {
	outName := p.Output.Name
	for i, env := range envs {
		env[outName] = sig[i]
		for _, ex := range examples {
			if ex.Pre.Eval(p.U, env).Bool() && !ex.Post.Eval(p.U, env).Bool() {
				return false
			}
		}
	}
	return true
}
