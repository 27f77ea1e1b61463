// Package synth implements the paper's expression-inference engine:
// Algorithm 1 (SolveConcrete), the bottom-up enumerative search pruned by
// signature indistinguishability, and Algorithm 2 (SolveConcolic), the
// CEGIS loop that alternates enumeration over concretizations with SMT
// consistency checks against concolic examples.
package synth

import (
	"errors"
	"fmt"
	"time"

	"transit/internal/expr"
)

// ConcreteExample is the paper's (S, k_o) pair: a valuation S of the input
// variables and the concrete output value k_o the target expression must
// produce under S.
type ConcreteExample struct {
	S   expr.Env
	Out expr.Value
}

// ConcolicExample is the paper's pre ⇒ post example: Pre is a Boolean
// expression over the input variables V, Post a Boolean expression over
// V ∪ {o} where o is the distinguished output variable. An expression e is
// consistent with the example iff pre ⇒ post[o := e] is valid.
type ConcolicExample struct {
	Pre  expr.Expr
	Post expr.Expr
}

// Formula renders the example as the single implication pre ⇒ post.
func (c ConcolicExample) Formula() expr.Expr { return expr.Implies(c.Pre, c.Post) }

// Problem fixes the inference instance: the universe, the expression
// vocabulary G = (T, F), the typed input variables V, and the typed output
// variable o ∉ V.
type Problem struct {
	U      *expr.Universe
	Vocab  *expr.Vocabulary
	Vars   []*expr.Var
	Output *expr.Var
}

// validate checks structural sanity of the problem.
func (p Problem) validate() error {
	if p.U == nil || p.Vocab == nil || p.Output == nil {
		return errors.New("synth: problem requires universe, vocabulary and output variable")
	}
	for _, v := range p.Vars {
		if v.Name == p.Output.Name {
			return errors.New("synth: output variable must not appear in input variables")
		}
	}
	return nil
}

// Limits bounds the search.
//
// The zero value is valid and means "use the documented defaults": a zero
// MaxSize, MaxExprs, or MaxIters resolves to DefaultMaxSize,
// DefaultMaxExprs, or DefaultMaxIters respectively, while a zero Timeout
// means no wall-clock bound and a zero SMTConflicts means unbounded SMT
// queries. WithDefaults is the single place this resolution happens; both
// SolveConcreteCtx and SolveConcolicCtx apply it on entry, so callers
// passing Limits{} and callers passing the explicit defaults get
// identical behavior.
type Limits struct {
	// MaxSize is the largest expression size enumerated.
	// 0 means DefaultMaxSize.
	MaxSize int
	// MaxExprs caps the number of candidate expressions examined
	// (enumerated, whether or not pruned). 0 means DefaultMaxExprs.
	MaxExprs int64
	// MaxIters caps CEGIS iterations in SolveConcolic.
	// 0 means DefaultMaxIters.
	MaxIters int
	// Timeout caps wall-clock time for the whole call, every CEGIS
	// round and restart of SolveConcolic included; 0 means none.
	Timeout time.Duration
	// SMTConflicts bounds the SAT conflicts of each SMT query, its
	// canonicalization probes included; 0 means unlimited. A query that
	// exhausts it fails the call with an error wrapping
	// smt.ErrConflictBudget.
	SMTConflicts int64
	// NoPrune disables indistinguishability pruning (the paper's
	// "Exhaustive" variant, used as the Figure 5 baseline).
	NoPrune bool
	// NoBankReuse makes SolveConcolic rebuild the expression bank from
	// size 1 on every CEGIS round instead of extending the previous
	// round's bank with the new concretization and resuming enumeration
	// at the previous winner's position. Without a bank there is nothing
	// for the probe-keyed shadows of interpretation reduction (DESIGN.md
	// §15) to keep fresh, so the flag turns them off too. Reuse never
	// yields an expression inconsistent with the examples (every answer
	// still passes the full SMT consistency check) and falls back to a
	// full restart when the resumed search exhausts the size bound, but
	// it can return a different consistent expression (ROADMAP item 2).
	// The restart-per-round search the flag selects is the reference
	// path: the parity tests and the transit-bench -enum baseline compare
	// the default search against it. Ignored (reuse disabled) under
	// NoPrune.
	NoBankReuse bool
}

// Default limits, applied by Limits.WithDefaults.
const (
	DefaultMaxSize  = 20
	DefaultMaxExprs = 20_000_000
	DefaultMaxIters = 64
)

// WithDefaults resolves zero fields to the package defaults. It is
// idempotent, and it is the only place zero-value Limits semantics are
// defined: every solver entry point normalizes its Limits through it, and
// external consumers (e.g. the engine's memoization key) use it so that
// Limits{} and the spelled-out defaults are interchangeable.
func (l Limits) WithDefaults() Limits {
	if l.MaxSize == 0 {
		l.MaxSize = DefaultMaxSize
	}
	if l.MaxExprs == 0 {
		l.MaxExprs = DefaultMaxExprs
	}
	if l.MaxIters == 0 {
		l.MaxIters = DefaultMaxIters
	}
	return l
}

// Sentinel errors.
var (
	// ErrNoExpression means the bounded space held no consistent
	// expression (or a resource limit cut the search off). Every such
	// failure wraps one of the four stop reasons below, which wrap it.
	ErrNoExpression = errors.New("synth: no consistent expression within limits")
	// ErrExprBudget means a search examined Limits.MaxExprs candidates.
	ErrExprBudget = fmt.Errorf("%w: candidate budget exhausted", ErrNoExpression)
	// ErrTimeout means the call ran past Limits.Timeout.
	ErrTimeout = fmt.Errorf("%w: timeout", ErrNoExpression)
	// ErrSizeBound means a search enumerated every expression up to
	// Limits.MaxSize without finding one consistent with its examples.
	ErrSizeBound = fmt.Errorf("%w: size bound reached", ErrNoExpression)
	// ErrIterBudget means CEGIS ran Limits.MaxIters rounds without an
	// answer.
	ErrIterBudget = fmt.Errorf("%w: CEGIS iteration budget exhausted", ErrNoExpression)
	// ErrInconsistent means the example set itself admits no output value
	// for some reachable input valuation.
	ErrInconsistent = errors.New("synth: example set is inconsistent")
	// ErrUnrealizable means the hole is impossible, not merely
	// undiscovered: the vocabulary admits no expression of the output
	// type — at any size — consistent with the concolic examples. It is
	// proved by enumerating the observational-equivalence classes of the
	// vocabulary over every interpretation of the input variables to a
	// semantic fixpoint and spec-checking each class (see
	// checkUnrealizable), so unlike ErrNoExpression it is not worth
	// retrying with larger limits.
	ErrUnrealizable = errors.New("synth: hole is unrealizable")
)

// ConcreteStats reports enumeration work done by SolveConcrete.
type ConcreteStats struct {
	// Enumerated counts every candidate expression examined, including
	// ones discarded as indistinguishable. This is the Figure 5 metric.
	Enumerated int64
	// Kept counts distinct signatures retained.
	Kept int64
	// MaxSizeSeen is the largest size tier the search entered.
	MaxSizeSeen int
	// Restarts counts CEGIS rounds that ran a fresh search despite having
	// a resumable bank: either the resumed search exhausted the size
	// bound and transparently fell back (the undetected stale-pool case,
	// synth.bank_fallback counter), or the interpretation shadows proved
	// the bank stale up front and the doomed resumed walk was skipped
	// entirely (synth.bank_stale counter). Always 0 outside CEGIS bank
	// reuse; Enumerated and Kept include the work of every attempt.
	Restarts int
	// InterpPruned counts duplicate candidates the interpretation index
	// proved redundant beyond example-equivalence: output-typed
	// expressions whose full signature — probe coordinates plus example
	// coordinates — was already covered by a retained representative or a
	// stored shadow. 0 when interpretation reduction is off.
	InterpPruned int64
	Elapsed      time.Duration
}

// IterRecord is one CEGIS round, the paper's Table 2 row and the
// provenance ledger's iteration record in one: the candidate checked,
// the concolic example that refuted it with the SMT witness, and the
// output the round concretized at that witness, plus whether the round
// resumed the previous bank or restarted and its enumeration counters.
// Every field is text or a number, rendered once when the round ends, so
// the record is free of any universe: the ledger, the memo cache on both
// tiers, Table 2 and -cegis-trace all carry it unchanged. The JSON names
// and their order are the ledger's. All fields are deterministic, so a
// trace stays byte-identical across -workers settings and cache replays.
type IterRecord struct {
	// Round numbers the rounds of a solve from 1.
	Round int `json:"round"`
	// Candidate is the expression proposed by SolveConcrete.
	Candidate string `json:"candidate"`
	// Accepted reports that every concolic example held for Candidate.
	Accepted bool `json:"accepted"`
	// KilledBy is the index of the concolic example whose consistency
	// query refuted Candidate, or -1 when it was accepted.
	KilledBy int `json:"killed_by"`
	// Witness is the refuting SMT model over the inputs, as "k=v" pairs
	// in name order joined by spaces; empty when accepted.
	Witness string `json:"witness,omitempty"`
	// CounterOut is the output value concretized at Witness, the new
	// concrete example's output; empty when accepted.
	CounterOut string `json:"counter_out,omitempty"`
	// Enumerated and Kept are this round's enumeration counters
	// (per-round slices of ConcreteStats.Enumerated/Kept).
	Enumerated int64 `json:"enumerated"`
	Kept       int64 `json:"kept"`
	// Resumed reports that the round resumed the previous round's
	// expression bank instead of enumerating from size 1. A round whose
	// bank was proven stale before the walk ran fresh and is not resumed.
	Resumed bool `json:"resumed,omitempty"`
	// Restarted reports that the round's search restarted despite a
	// resumable bank (stale-skip or transparent fallback).
	Restarted bool `json:"restarted,omitempty"`
}

// Stats reports work done by SolveConcolic.
type Stats struct {
	Concrete   ConcreteStats
	SMTQueries int
	Iterations int
	Elapsed    time.Duration

	// Trace holds one record per CEGIS round. A memo-cache hit shares
	// the trace of the solve it replays, so it is read-only.
	Trace []IterRecord

	// BankReuses counts CEGIS rounds that resumed enumeration from the
	// previous round's expression bank instead of restarting at size 1,
	// the rounds the synth.bank_reused counter counts (always 0 with
	// Limits.NoBankReuse or Limits.NoPrune).
	BankReuses int

	// Unrealizable reports that the solve failed with ErrUnrealizable:
	// the exhaustion was proved permanent, not a budget artifact.
	Unrealizable bool

	// SMTClauses sums the clauses bit-blasted by every SMT query.
	SMTClauses int64
}
