// Package transit is a from-scratch Go reproduction of TRANSIT
// ("TRANSIT: Specifying Protocols with Concolic Snippets", Udupa et al.,
// PLDI 2013): a system for specifying distributed protocols as EFSM
// skeletons plus concolic snippets — transition fragments mixing symbolic
// constraints and concrete examples — from which a synthesis engine infers
// complete guards and update expressions, verified end-to-end by an
// explicit-state model checker.
//
// The package is a facade over the building blocks in internal/:
//
//   - internal/expr — the typed expression language of Table 1 (Bool,
//     bounded Int, PID, Set, Enums) with evaluation semantics shared by
//     every component;
//   - internal/sat + internal/smt — a CDCL SAT solver and a bit-blasting
//     finite-domain SMT solver standing in for Z3;
//   - internal/synth — SolveConcrete (enumerative search pruned by
//     signature indistinguishability, Algorithm 1) and SolveConcolic (the
//     CEGIS loop, Algorithm 2);
//   - internal/efsm — the protocol model: processes, networks, messages,
//     transitions, snippets;
//   - internal/core — the synthesis tool: update inference (§5.1), guard
//     inference with mutual-exclusion side conditions (§5.2), and the
//     iterative case-study driver;
//   - internal/mc — the Murϕ-style explicit-state model checker;
//   - internal/lang — the TRANSIT surface language (.tr files);
//   - internal/protocols — the evaluation protocols: VI, MSI, MESI, and
//     the Origin-style protocol with the §2 Sharers anecdote.
//
// # Quick start
//
// Infer max(a, b) from a concolic specification:
//
//	u := transit.NewUniverse(3)
//	voc := transit.CoherenceVocabulary(u, transit.VocabOptions{})
//	a, b := transit.NewVar("a", transit.IntType), transit.NewVar("b", transit.IntType)
//	o := transit.NewVar("o", transit.IntType)
//	prob := transit.Problem{U: u, Vocab: voc, Vars: []*transit.Var{a, b}, Output: o}
//	spec := []transit.ConcolicExample{{
//	    Pre:  transit.True(),
//	    Post: transit.And(transit.Ge(o, a), transit.Ge(o, b),
//	        transit.Or(transit.Eq(o, a), transit.Eq(o, b))),
//	}}
//	e, stats, err := transit.SolveConcolic(prob, spec, transit.Limits{})
//	// e is ite(ge(a, b), a, b) (or an equivalent), after a few CEGIS rounds.
//
// Load a protocol from TRANSIT source, synthesize it, and model check:
//
//	proto, _ := transit.LoadProtocol(src, 3)
//	report, _ := transit.Synthesize(proto, transit.SynthesisOptions{})
//	result, _ := transit.Verify(proto, transit.VerifyOptions{CheckDeadlock: true})
package transit

import (
	"context"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/engine"
	"transit/internal/expr"
	"transit/internal/lang"
	"transit/internal/mc"
	"transit/internal/protocols"
	"transit/internal/smt"
	"transit/internal/synth"
)

// Core expression-language types.
type (
	// Universe fixes the finite carrier sets (cache count, integer width,
	// enums) shared by evaluation, SMT solving, and model checking.
	Universe = expr.Universe
	// Type is a TRANSIT type: Bool, Int, PID, Set, or an enum.
	Type = expr.Type
	// EnumType is a declared enumerated type.
	EnumType = expr.EnumType
	// Value is a typed runtime value.
	Value = expr.Value
	// Expr is a typed expression over the Table 1 vocabulary.
	Expr = expr.Expr
	// Var is a typed variable.
	Var = expr.Var
	// Env is a valuation of variables.
	Env = expr.Env
	// Vocabulary is the function-symbol set searched by the synthesizer.
	Vocabulary = expr.Vocabulary
	// VocabOptions configures CoherenceVocabulary.
	VocabOptions = expr.CoherenceOptions
)

// Base types.
var (
	BoolType = expr.BoolType
	IntType  = expr.IntType
	PIDType  = expr.PIDType
	SetType  = expr.SetType
)

// Synthesis types (Algorithms 1 and 2).
type (
	// Problem is an expression-inference instance.
	Problem = synth.Problem
	// ConcreteExample is the paper's (S, k_o) pair.
	ConcreteExample = synth.ConcreteExample
	// ConcolicExample is a pre ⇒ post constraint over V ∪ {o}.
	ConcolicExample = synth.ConcolicExample
	// Limits bounds the search.
	Limits = synth.Limits
	// SynthStats reports CEGIS work.
	SynthStats = synth.Stats
	// ConcreteStats reports enumeration work.
	ConcreteStats = synth.ConcreteStats
)

// Protocol-model types.
type (
	// System is a protocol skeleton plus completed transitions.
	System = efsm.System
	// ProcDef is one process definition.
	ProcDef = efsm.ProcDef
	// Network is a typed channel with ordering and routing.
	Network = efsm.Network
	// Snippet is a concolic specification fragment (Figure 4).
	Snippet = efsm.Snippet
	// Runtime executes a System.
	Runtime = efsm.Runtime
	// Invariant is a safety property checked on every reachable state.
	Invariant = mc.Invariant
	// CheckResult is a model-checking outcome.
	CheckResult = mc.Result
	// Violation is a counterexample with its trace.
	Violation = mc.Violation
	// SynthesisReport summarizes one protocol completion.
	SynthesisReport = core.Report
	// Protocol is an elaborated TRANSIT program or built-in protocol.
	Protocol = lang.Protocol
	// CaseStudy scripts the iterative specify→synthesize→check workflow.
	CaseStudy = core.CaseStudy
	// CaseStudyResult aggregates a replay.
	CaseStudyResult = core.CaseStudyResult
)

// NewUniverse creates a Universe with the given cache count and the
// default 8-bit integer width.
func NewUniverse(numCaches int) *Universe { return expr.NewUniverse(numCaches) }

// NewUniverseWidth creates a Universe with an explicit integer bit-width.
func NewUniverseWidth(numCaches int, width uint) (*Universe, error) {
	return expr.NewUniverseWidth(numCaches, width)
}

// NewVar declares a typed variable.
func NewVar(name string, t Type) *Var { return expr.V(name, t) }

// CoherenceVocabulary builds the paper's Table 1 vocabulary.
func CoherenceVocabulary(u *Universe, opts VocabOptions) *Vocabulary {
	return expr.CoherenceVocabulary(u, opts)
}

// Expression builders (re-exported from internal/expr).
var (
	True      = expr.True
	False     = expr.False
	And       = expr.And
	Or        = expr.Or
	Not       = expr.Not
	Implies   = expr.Implies
	Eq        = expr.Eq
	Neq       = expr.Neq
	Ite       = expr.Ite
	Gt        = expr.Gt
	Ge        = expr.Ge
	Lt        = expr.Lt
	Le        = expr.Le
	Add       = expr.Add
	Sub       = expr.Sub
	Inc       = expr.Inc
	Dec       = expr.Dec
	IsZero    = expr.IsZero
	SetAdd    = expr.SetAdd
	SetUnion  = expr.SetUnion
	SetInter  = expr.SetInter
	SetMinus  = expr.SetMinus
	Singleton = expr.Singleton
	Card      = expr.Card
	SubsetEq  = expr.SubsetEq
	Contains  = expr.SetContains
	NumCaches = expr.NumCaches
	Pretty    = expr.Pretty
)

// PIDLit is the concrete process-identifier literal Ck.
func PIDLit(k int) Expr { return expr.PIDC(k) }

// SetLit is a concrete set literal containing the given PIDs.
func SetLit(pids ...int) Expr { return expr.NewConst(expr.SetOf(pids...)) }

// IntLit is an integer literal in the universe's wrapped range.
func IntLit(u *Universe, x int64) Expr { return expr.IntC(u, x) }

// BoolLit is a Boolean literal.
func BoolLit(b bool) Expr { return expr.BoolC(b) }

// EnumLit is an enum literal by name.
func EnumLit(e *EnumType, name string) Expr { return expr.EnumC(e, name) }

// SolveConcrete runs Algorithm 1: enumerative search over the vocabulary
// pruned by signature indistinguishability against concrete examples.
func SolveConcrete(p Problem, examples []ConcreteExample, limits Limits) (Expr, ConcreteStats, error) {
	return synth.SolveConcrete(p, examples, limits)
}

// SolveConcolic runs Algorithm 2: the CEGIS loop alternating SolveConcrete
// over concretizations with SMT consistency checks.
func SolveConcolic(p Problem, examples []ConcolicExample, limits Limits) (Expr, SynthStats, error) {
	return synth.SolveConcolic(p, examples, limits)
}

// SolveConcolicCtx is SolveConcolic under a context: cancellation and
// deadlines abort the enumeration, the SMT checks, and the CEGIS loop.
func SolveConcolicCtx(ctx context.Context, p Problem, examples []ConcolicExample, limits Limits) (Expr, SynthStats, error) {
	return synth.SolveConcolicCtx(ctx, p, examples, limits)
}

// CheckSat decides satisfiability of a Boolean expression over typed
// variables using the bundled finite-domain SMT solver.
func CheckSat(u *Universe, vars []*Var, formula Expr) (sat bool, model Env, err error) {
	res, err := smt.Solve(u, vars, formula)
	if err != nil {
		return false, nil, err
	}
	return res.Status == smt.Sat, res.Model, nil
}

// CheckValid decides validity; on failure the returned environment is a
// counterexample.
func CheckValid(u *Universe, vars []*Var, formula Expr) (valid bool, counterexample Env, err error) {
	return smt.Valid(u, vars, formula)
}

// LoadProtocol parses and elaborates TRANSIT source for a cache count.
func LoadProtocol(src string, numCaches int) (*Protocol, error) {
	return lang.Build(src, numCaches)
}

// SynthCache is the engine's cross-job memoization cache; share one
// across Synthesize calls to reuse solved sub-problems.
type SynthCache = engine.Cache

// NewSynthCache creates an empty memoization cache.
func NewSynthCache() *SynthCache { return engine.NewCache() }

// SynthesisOptions configures Synthesize: search limits, the inference
// worker pool, an overall deadline, and the memoization cache.
type SynthesisOptions = core.Options

// Synthesize completes the protocol's skeleton from its snippets (§5),
// installing full transitions into proto.Sys.
func Synthesize(proto *Protocol, opts SynthesisOptions) (*SynthesisReport, error) {
	return SynthesizeCtx(context.Background(), proto, opts)
}

// SynthesizeCtx is Synthesize under a context: cancellation and deadlines
// stop in-flight inference jobs.
func SynthesizeCtx(ctx context.Context, proto *Protocol, opts SynthesisOptions) (*SynthesisReport, error) {
	return core.CompleteCtx(ctx, proto.Sys, proto.Vocab, proto.Snippets, opts)
}

// VerifyOptions configures Verify: the state budget, deadlock checking,
// the progress heartbeat, the frontier worker pool, and symmetry
// reduction.
type VerifyOptions = mc.Options

// Verify model checks a synthesized protocol against its invariants,
// returning the first (shortest) counterexample if any.
func Verify(proto *Protocol, opts VerifyOptions) (*CheckResult, error) {
	rt, err := efsm.NewRuntime(proto.Sys)
	if err != nil {
		return nil, err
	}
	return mc.Check(rt, proto.Invariants, opts)
}

// VerifyCtx is Verify under a context: cancellation and deadlines abort
// the breadth-first exploration, returning the partial result so far.
func VerifyCtx(ctx context.Context, proto *Protocol, opts VerifyOptions) (*CheckResult, error) {
	rt, err := efsm.NewRuntime(proto.Sys)
	if err != nil {
		return nil, err
	}
	return mc.CheckCtx(ctx, rt, proto.Invariants, opts)
}

// VerifyWithChart is Verify, additionally rendering any violation as an
// ASCII message-sequence chart (the paper's counterexample-visualizer
// view; Figure 2 is one such chart). The chart is empty on a clean run.
func VerifyWithChart(proto *Protocol, opts VerifyOptions) (*CheckResult, string, error) {
	rt, err := efsm.NewRuntime(proto.Sys)
	if err != nil {
		return nil, "", err
	}
	return mc.CheckWithMSC(rt, proto.Invariants, opts)
}

// VerifyWithChartCtx is VerifyWithChart under a context: cancellation and
// deadlines abort the exploration, and the context's observability state
// (tracer, metrics registry) is threaded into the model checker.
func VerifyWithChartCtx(ctx context.Context, proto *Protocol, opts VerifyOptions) (*CheckResult, string, error) {
	rt, err := efsm.NewRuntime(proto.Sys)
	if err != nil {
		return nil, "", err
	}
	return mc.CheckWithMSCCtx(ctx, rt, proto.Invariants, opts)
}

// RunCaseStudy replays a scripted specify→synthesize→check→fix workflow.
func RunCaseStudy(cs CaseStudy) (*CaseStudyResult, error) {
	return core.RunCaseStudy(cs)
}

// VI returns the built-in VI protocol (the simpler GEMS transcription of
// Table 4): Valid/Invalid caching with a blocking recall directory.
func VI(numCaches int) *Protocol { return protocols.VI(numCaches).Protocol() }

// MSI returns the built-in MSI directory protocol (Table 4 / case study
// A): a three-state invalidation protocol with directory transient states,
// sharer tracking, and invalidation-acknowledgement counting.
func MSI(numCaches int) *Protocol { return protocols.MSI(numCaches).Protocol() }

// MESI returns the built-in MESI protocol (case study B): MSI extended
// with the Exclusive optimization.
func MESI(numCaches int) *Protocol { return protocols.MESI(numCaches).Protocol() }

// Origin returns the built-in SGI-Origin-style protocol (case study C).
// With fixed=false the read-to-exclusive Sharers update carries only the
// underspecified superset constraint of the §2 anecdote: synthesis
// produces Sharers ∪ {Msg.Sender}, and Verify returns the Figure 2
// coherence violation. With fixed=true the concrete bug-fix snippet is
// included and the protocol verifies.
func Origin(numCaches int, fixed bool) *Protocol {
	return protocols.Origin(numCaches, fixed).Protocol()
}

// Case studies of §6, scripted for mechanical replay (Table 5).
var (
	// CaseStudyMSI is case study A: MSI built iteratively from a sparse
	// transcription.
	CaseStudyMSI = protocols.CaseStudyA
	// CaseStudyMESI is case study B: extending MSI to MESI.
	CaseStudyMESI = protocols.CaseStudyB
	// CaseStudyOrigin is case study C: the Origin protocol and the
	// Figure 2 fix.
	CaseStudyOrigin = protocols.CaseStudyC
)
