package server

import (
	"context"
	"encoding/json"
	"fmt"

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
	Solve    *lang.SolveDecl  `json:"solve,omitempty"`
	Complete *CompleteRequest `json:"complete,omitempty"`
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
func (s *Server) prepare(req *JobRequest) (string, func(context.Context, *job) (json.RawMessage, error), error) {
	switch req.Kind {
	case "solve":
		if req.Solve == nil {
			return "", nil, fmt.Errorf(`kind "solve" needs a "solve" payload`)
		}
		prob, exs, err := req.Solve.Elab()
		if err != nil {
			return "", nil, err
		}
		spec := engine.SolveSpec{Problem: prob, Examples: exs, Limits: synth.Limits{
			MaxSize:  req.Solve.MaxSize,
			MaxIters: req.Solve.MaxIters,
			MaxExprs: req.Solve.MaxExprs,
		}}
		key := "solve:" + spec.Key()
		return key, func(ctx context.Context, j *job) (json.RawMessage, error) {
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
		return completeKey(&c), func(ctx context.Context, j *job) (json.RawMessage, error) {
			return s.runComplete(ctx, j, proto, &c)
		}, nil
	default:
		return "", nil, fmt.Errorf("unknown job kind %q (want solve or complete)", req.Kind)
	}
}

// runSolve executes a solve job through the shared cache.
func (s *Server) runSolve(ctx context.Context, j *job, spec engine.SolveSpec) (json.RawMessage, error) {
	res, st, _, err := s.cache.Solve(ctx, spec)
	if err != nil {
		return nil, err
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
		Provenance: solveProvenance(spec, res, st),
	}
	raw, err := json.Marshal(result)
	if err == nil {
		j.setProvenance(provSummary(result.Provenance, nil))
	}
	return raw, err
}

// solveProvenance builds the one-hole causal record for a direct solve
// job from the request examples and the (possibly cache-replayed) CEGIS
// trace. It must be a pure function of the problem: the job-server CI
// smoke test diffs result bytes between a cold job and its warm
// resubmission.
func solveProvenance(spec engine.SolveSpec, res expr.Expr, st synth.Stats) *provenance.HoleRecord {
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
	h.Iterations = st.Trace
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
	return protocols.Builtin(req.Builtin, req.NumCaches)
}

// runComplete executes a skeleton-completion job through the shared
// cache.
func (s *Server) runComplete(ctx context.Context, j *job, proto *lang.Protocol, req *CompleteRequest) (json.RawMessage, error) {
	// Each completion job gets its own recorder; the core layer fills it
	// in plan order, so the resulting ledger — and with it the whole
	// result payload — is byte-identical across worker counts and cache
	// temperature.
	rec := provenance.NewRecorder(proto.Name)
	ctx = provenance.WithRecorder(ctx, rec)
	rep, err := core.CompleteCtx(ctx, proto.Sys, proto.Vocab, proto.Snippets, core.Options{
		Limits:  synth.Limits{MaxSize: req.MaxSize},
		Workers: s.cfg.Workers,
		Cache:   s.cache,
	})
	if err != nil {
		return nil, err
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
	return raw, err
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
