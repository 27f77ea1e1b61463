package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/engine"
	"transit/internal/expr"
	"transit/internal/lang"
	"transit/internal/obs/provenance"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// JobRequest is the POST /v1/jobs body: a kind plus its payload.
type JobRequest struct {
	// Kind is "solve" (one SolveConcolic call) or "complete" (a whole
	// protocol skeleton completion).
	Kind     string           `json:"kind"`
	Solve    *SolveRequest    `json:"solve,omitempty"`
	Complete *CompleteRequest `json:"complete,omitempty"`
}

// EnumDecl declares one enumerated type for a solve request.
type EnumDecl struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// VarDecl declares one typed variable. Type is Bool, Int, PID, Set, or a
// declared enum name.
type VarDecl struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// VocabOptions selects the vocabulary variant searched by the solver.
type VocabOptions struct {
	EnumConstants  bool `json:"enum_constants,omitempty"`
	PIDConstants   bool `json:"pid_constants,omitempty"`
	SetLiterals    bool `json:"set_literals,omitempty"`
	WithoutEnumIte bool `json:"without_enum_ite,omitempty"`
}

// ExampleDecl is one concolic example; Pre and Post are expressions in
// TRANSIT surface syntax over the declared variables and the output.
type ExampleDecl struct {
	Pre  string `json:"pre"`
	Post string `json:"post"`
}

// SolveRequest wire-encodes one SolveConcolic problem.
type SolveRequest struct {
	NumCaches int        `json:"num_caches"`
	IntWidth  uint       `json:"int_width,omitempty"` // 0 = default 8
	Enums     []EnumDecl `json:"enums,omitempty"`

	Vocab    VocabOptions  `json:"vocab"`
	Vars     []VarDecl     `json:"vars"`
	Output   VarDecl       `json:"output"`
	Examples []ExampleDecl `json:"examples"`

	MaxSize  int   `json:"max_size,omitempty"`
	MaxIters int   `json:"max_iters,omitempty"`
	MaxExprs int64 `json:"max_exprs,omitempty"`
}

// SolveStats is the deterministic subset of the solver's work counters:
// every field is a pure function of the problem, so cold solves and
// cache replays report identical values. Wall-clock time is deliberately
// absent (it lives in the job envelope).
type SolveStats struct {
	Enumerated  int64 `json:"enumerated"`
	Kept        int64 `json:"kept"`
	MaxSizeSeen int   `json:"max_size_seen"`
	Iterations  int   `json:"iterations"`
	SMTQueries  int   `json:"smt_queries"`
	SMTClauses  int64 `json:"smt_clauses"`
}

// SolveResult is a solve job's result payload. Provenance is the
// single-hole causal record for the synthesized expression: the request
// examples with digests, every CEGIS round, and the minimal witness
// set. It is built from the replayed trace, so warm cache replays carry
// the same record as the cold solve.
type SolveResult struct {
	Expr       string                 `json:"expr"`
	Stats      SolveStats             `json:"stats"`
	Provenance *provenance.HoleRecord `json:"provenance,omitempty"`
}

// CompleteRequest wire-encodes a skeleton-completion job: either TRANSIT
// source or a built-in protocol name.
type CompleteRequest struct {
	Source    string `json:"source,omitempty"`
	Builtin   string `json:"builtin,omitempty"` // vi, msi, mesi, origin, origin-buggy
	NumCaches int    `json:"num_caches,omitempty"`
	MaxSize   int    `json:"max_size,omitempty"`
}

// CompleteResult is a completion job's result payload: the deterministic
// report counters plus the completed transitions rendered as text. Cache
// traffic and wall-clock live in the job envelope, never here, so a warm
// replay is byte-identical to the cold run.
type CompleteResult struct {
	Protocol           string   `json:"protocol"`
	Snippets           int      `json:"snippets"`
	Transitions        int      `json:"transitions"`
	UpdatesSynthesized int      `json:"updates_synthesized"`
	GuardsSynthesized  int      `json:"guards_synthesized"`
	UpdateExprsTried   int64    `json:"update_exprs_tried"`
	GuardExprsTried    int64    `json:"guard_exprs_tried"`
	SMTQueries         int      `json:"smt_queries"`
	TransitionsText    []string `json:"transitions_text"`
	// Provenance is the run's full ledger: one hole record per
	// synthesized guard and update, assembled in plan order (DESIGN.md
	// §16), so it is identical across worker counts and cache tiers.
	Provenance *provenance.Ledger `json:"provenance,omitempty"`
}

// prepare validates a request and returns its canonical dedup key plus
// the runner executing it. Validation work (parsing source, elaborating
// expressions) happens here, on the submission path, so malformed
// requests fail with 400 instead of occupying a worker.
func (s *Server) prepare(req *JobRequest) (string, func(context.Context, *job) (json.RawMessage, jobCache, error), error) {
	switch req.Kind {
	case "solve":
		if req.Solve == nil {
			return "", nil, fmt.Errorf(`kind "solve" needs a "solve" payload`)
		}
		spec, err := buildSolveSpec(req.Solve)
		if err != nil {
			return "", nil, err
		}
		key := "solve:" + spec.Key()
		return key, func(ctx context.Context, j *job) (json.RawMessage, jobCache, error) {
			return s.runSolve(ctx, j, spec)
		}, nil
	case "complete":
		if req.Complete == nil {
			return "", nil, fmt.Errorf(`kind "complete" needs a "complete" payload`)
		}
		c := *req.Complete
		if c.NumCaches <= 0 {
			c.NumCaches = 3
		}
		if c.MaxSize <= 0 {
			c.MaxSize = 12
		}
		proto, err := loadProtocol(&c)
		if err != nil {
			return "", nil, err
		}
		return completeKey(&c), func(ctx context.Context, j *job) (json.RawMessage, jobCache, error) {
			return s.runComplete(ctx, j, proto, &c)
		}, nil
	default:
		return "", nil, fmt.Errorf("unknown job kind %q (want solve or complete)", req.Kind)
	}
}

// typeByName resolves a wire type name against a universe.
func typeByName(u *expr.Universe, name string) (expr.Type, error) {
	switch name {
	case "Bool":
		return expr.BoolType, nil
	case "Int":
		return expr.IntType, nil
	case "PID":
		return expr.PIDType, nil
	case "Set":
		return expr.SetType, nil
	}
	if et, ok := u.Enum(name); ok {
		return expr.EnumOf(et), nil
	}
	return expr.Type{}, fmt.Errorf("unknown type %q", name)
}

// buildSolveSpec elaborates a wire solve request into an engine spec.
func buildSolveSpec(req *SolveRequest) (engine.SolveSpec, error) {
	var zero engine.SolveSpec
	if req.NumCaches <= 0 {
		return zero, fmt.Errorf("num_caches must be positive")
	}
	width := req.IntWidth
	if width == 0 {
		width = 8
	}
	u, err := expr.NewUniverseWidth(req.NumCaches, width)
	if err != nil {
		return zero, err
	}
	enums := make([]*expr.EnumType, 0, len(req.Enums))
	for _, d := range req.Enums {
		et, err := u.DeclareEnum(d.Name, d.Values...)
		if err != nil {
			return zero, err
		}
		enums = append(enums, et)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums:             enums,
		WithEnumConstants: req.Vocab.EnumConstants,
		WithPIDConstants:  req.Vocab.PIDConstants,
		WithSetLiterals:   req.Vocab.SetLiterals,
		WithoutEnumIte:    req.Vocab.WithoutEnumIte,
	})

	if req.Output.Name == "" {
		return zero, fmt.Errorf("output variable is required")
	}
	scope := lang.ExprScope{U: u, Vars: map[string]expr.Type{}, Enums: enums}
	vars := make([]*expr.Var, 0, len(req.Vars))
	for _, d := range req.Vars {
		t, err := typeByName(u, d.Type)
		if err != nil {
			return zero, fmt.Errorf("var %s: %w", d.Name, err)
		}
		if _, dup := scope.Vars[d.Name]; dup {
			return zero, fmt.Errorf("duplicate variable %q", d.Name)
		}
		vars = append(vars, expr.V(d.Name, t))
		scope.Vars[d.Name] = t
	}
	ot, err := typeByName(u, req.Output.Type)
	if err != nil {
		return zero, fmt.Errorf("output %s: %w", req.Output.Name, err)
	}
	if _, dup := scope.Vars[req.Output.Name]; dup {
		return zero, fmt.Errorf("output %q shadows an input variable", req.Output.Name)
	}
	out := expr.V(req.Output.Name, ot)
	scope.Vars[req.Output.Name] = ot

	if len(req.Examples) == 0 {
		return zero, fmt.Errorf("at least one example is required")
	}
	examples := make([]synth.ConcolicExample, 0, len(req.Examples))
	for i, ex := range req.Examples {
		pre := expr.True()
		if ex.Pre != "" {
			if pre, err = lang.ParseAndElabExpr(ex.Pre, scope); err != nil {
				return zero, fmt.Errorf("example %d pre: %w", i, err)
			}
		}
		post, err := lang.ParseAndElabExpr(ex.Post, scope)
		if err != nil {
			return zero, fmt.Errorf("example %d post: %w", i, err)
		}
		if pre.Type() != expr.BoolType || post.Type() != expr.BoolType {
			return zero, fmt.Errorf("example %d: pre and post must be Bool", i)
		}
		examples = append(examples, synth.ConcolicExample{Pre: pre, Post: post})
	}

	return engine.SolveSpec{
		Problem:  synth.Problem{U: u, Vocab: voc, Vars: vars, Output: out},
		Examples: examples,
		Limits: synth.Limits{
			MaxSize:  req.MaxSize,
			MaxIters: req.MaxIters,
			MaxExprs: req.MaxExprs,
		},
	}, nil
}

// runSolve executes a solve job through the shared cache.
func (s *Server) runSolve(ctx context.Context, j *job, spec engine.SolveSpec) (json.RawMessage, jobCache, error) {
	sink := j.telemetrySink()
	eng := engine.New(engine.Config{
		Cache: s.cache,
		Sink:  sink,
	})
	// Direct SolveConcolic calls sit below the engine's job-DAG telemetry,
	// so bracket the solve with the same event shapes Run emits.
	sink(engine.Event{Type: "solve_start", Job: j.id, Kind: j.kind})
	start := time.Now()
	res, st, out, err := eng.SolveConcolic(ctx, spec)
	ev := engine.Event{
		Type:       "solve_done",
		Job:        j.id,
		Kind:       j.kind,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		CacheHit:   out.Cached,
		CacheTier:  string(out.Tier),
		Candidates: st.Concrete.Enumerated,
		SMTQueries: st.SMTQueries,
		Iterations: st.Iterations,
		Retries:    out.Retries,
	}
	if err != nil {
		ev.Error = err.Error()
	}
	sink(ev)
	cinfo := jobCache{Tier: out.Tier, CacheWait: out.CacheWait, SolveWait: out.SolveWait}
	if out.Cached {
		cinfo.Hits = 1
		if out.Tier == engine.TierDisk {
			cinfo.DiskHits = 1
		}
	} else {
		cinfo.Misses = 1
	}
	if err != nil {
		return nil, cinfo, err
	}
	result := SolveResult{
		Expr: expr.Pretty(res),
		Stats: SolveStats{
			Enumerated:  st.Concrete.Enumerated,
			Kept:        st.Concrete.Kept,
			MaxSizeSeen: st.Concrete.MaxSizeSeen,
			Iterations:  st.Iterations,
			SMTQueries:  st.SMTQueries,
			SMTClauses:  st.SMTClauses,
		},
		Provenance: solveProvenance(spec, res, st, out),
	}
	raw, err := json.Marshal(result)
	if err == nil {
		j.setProvenance(provSummary(result.Provenance, nil))
	}
	return raw, cinfo, err
}

// solveProvenance builds the one-hole causal record for a direct solve
// job from the request examples and the (possibly cache-replayed) CEGIS
// trace. It must be a pure function of the problem: the job-server CI
// smoke test diffs result bytes between a cold job and its warm
// resubmission.
func solveProvenance(spec engine.SolveSpec, res expr.Expr, st synth.Stats, out engine.SolveOutcome) *provenance.HoleRecord {
	h := &provenance.HoleRecord{
		Label:  "solve " + spec.Problem.Output.Name,
		Kind:   "solve",
		Target: spec.Problem.Output.Name,
	}
	h.Examples = make([]provenance.ExampleRecord, 0, len(spec.Examples))
	for i, ex := range spec.Examples {
		pre, post := ex.Pre.String(), ex.Post.String()
		h.Examples = append(h.Examples, provenance.ExampleRecord{
			Index:  i,
			Kind:   provenance.KindRequest,
			Case:   -1,
			Pre:    pre,
			Post:   post,
			Digest: provenance.Digest(pre, post),
		})
	}
	h.Iterations = provenance.TraceIterations(st.Trace)
	h.Status = provenance.StatusSolved
	h.Result = res.String()
	provenance.ComputeWitnesses(h)
	return h
}

// loadProtocol resolves a completion request's source or builtin.
func loadProtocol(req *CompleteRequest) (*lang.Protocol, error) {
	if (req.Source == "") == (req.Builtin == "") {
		return nil, fmt.Errorf("exactly one of source or builtin is required")
	}
	if req.Source != "" {
		return lang.Build(req.Source, req.NumCaches)
	}
	var spec *protocols.Spec
	switch req.Builtin {
	case "vi":
		spec = protocols.VI(req.NumCaches)
	case "msi":
		spec = protocols.MSI(req.NumCaches)
	case "mesi":
		spec = protocols.MESI(req.NumCaches)
	case "origin":
		spec = protocols.Origin(req.NumCaches, true)
	case "origin-buggy":
		spec = protocols.Origin(req.NumCaches, false)
	default:
		return nil, fmt.Errorf("unknown builtin %q", req.Builtin)
	}
	return &lang.Protocol{
		Name:       spec.Name,
		Sys:        spec.Sys,
		Vocab:      spec.Vocab,
		Snippets:   spec.Snippets,
		Invariants: spec.Invariants,
	}, nil
}

// runComplete executes a skeleton-completion job through the shared
// cache.
func (s *Server) runComplete(ctx context.Context, j *job, proto *lang.Protocol, req *CompleteRequest) (json.RawMessage, jobCache, error) {
	// Each completion job gets its own recorder; the core layer fills it
	// in plan order, so the resulting ledger — and with it the whole
	// result payload — is byte-identical across worker counts and cache
	// temperature.
	rec := provenance.NewRecorder(proto.Name)
	ctx = provenance.WithRecorder(ctx, rec)
	rep, err := core.CompleteCtx(ctx, proto.Sys, proto.Vocab, proto.Snippets, core.Options{
		Limits:    synth.Limits{MaxSize: req.MaxSize},
		Workers:   s.cfg.Workers,
		Cache:     s.cache,
		Telemetry: j.telemetrySink(),
	})
	if err != nil {
		return nil, jobCache{}, err
	}
	cinfo := jobCache{
		Hits:      int64(rep.CacheHits),
		Misses:    int64(rep.CacheMisses),
		DiskHits:  int64(rep.DiskHits),
		Tier:      completionTier(rep),
		CacheWait: rep.CacheWait,
		SolveWait: rep.SolveWait,
	}
	out := CompleteResult{
		Protocol:           proto.Name,
		Snippets:           rep.Snippets,
		Transitions:        rep.Transitions,
		UpdatesSynthesized: rep.UpdatesSynthesized,
		GuardsSynthesized:  rep.GuardsSynthesized,
		UpdateExprsTried:   rep.UpdateExprsTried,
		GuardExprsTried:    rep.GuardExprsTried,
		SMTQueries:         rep.SMTQueries,
		TransitionsText:    renderTransitions(proto.Sys),
		Provenance:         rec.Ledger(),
	}
	raw, err := json.Marshal(out)
	if err == nil {
		j.setProvenance(provSummary(nil, out.Provenance))
	}
	return raw, cinfo, err
}

// completionTier collapses a completion run's many sub-solve lookups into
// one job-level tier: any miss means real synthesis happened ("miss"),
// otherwise any disk hit means the persistent store was needed ("disk"),
// otherwise pure memory hits ("mem"); a run with no lookups is "none".
func completionTier(rep *core.Report) engine.Tier {
	switch {
	case rep.CacheMisses > 0:
		return engine.TierMiss
	case rep.DiskHits > 0:
		return engine.TierDisk
	case rep.CacheHits > 0:
		return engine.TierMem
	default:
		return engine.TierNone
	}
}

// telemetrySink adapts the job's event bus to the engine's Sink: every
// engine event becomes one NDJSON line on the job's SSE stream.
func (j *job) telemetrySink() engine.Sink {
	return func(ev engine.Event) {
		j.publish("engine", map[string]any{"event": ev})
	}
}

// renderTransitions renders every completed transition in the CLI dump
// format — a deterministic, human-readable view of the synthesis output.
func renderTransitions(sys *efsm.System) []string {
	var lines []string
	for _, d := range sys.Defs {
		for _, t := range d.Transitions {
			if t.Defer {
				lines = append(lines, fmt.Sprintf("%s: (%s, %s) [%s] stall", d.Name, t.From, t.Event, t.GuardString()))
				continue
			}
			lines = append(lines, fmt.Sprintf("%s: (%s, %s) [%s] -> %s", d.Name, t.From, t.Event, t.GuardString(), t.To))
			for _, u := range t.Updates {
				lines = append(lines, fmt.Sprintf("  %s := %s", u.Var, expr.Pretty(u.Rhs)))
			}
			for _, snd := range t.Sends {
				if snd.TargetSet != nil {
					lines = append(lines, fmt.Sprintf("  send %s to each of %s:", snd.Net.Name, expr.Pretty(snd.TargetSet)))
				} else {
					lines = append(lines, fmt.Sprintf("  send %s:", snd.Net.Name))
				}
				for _, f := range snd.Fields {
					lines = append(lines, fmt.Sprintf("    %s = %s", f.Field, expr.Pretty(f.Rhs)))
				}
			}
		}
	}
	return lines
}
