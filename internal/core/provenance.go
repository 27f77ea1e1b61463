package core

import (
	"errors"

	"transit/internal/expr"
	"transit/internal/obs/provenance"
	"transit/internal/synth"
)

// This file assembles the provenance ledger for one completion run. The
// captures are created at plan time (one per inference job) and each
// job's Run closure fills only its own capture, so there is no sharing
// to race on; the ledger itself is assembled single-threaded, in plan
// order, after the engine run — the same discipline aggregate() uses to
// keep the Report worker-count-deterministic. Everything recorded comes
// from deterministic sources (the example lists built by the planner and
// synth.Stats.Trace, which the memo cache replays on both tiers), so the
// ledger is byte-identical across worker counts and cache temperature.

// exampleMeta is the plan-side origin of one concolic example.
type exampleMeta struct {
	kind    string // provenance.Kind*
	source  string // snippet label or block key
	caseIdx int    // snippet case ordinal; -1 for guard examples
}

// holeCapture is one inference job's provenance slot.
type holeCapture struct {
	label   string
	kind    string // "guard" | "update"
	process string
	from    string
	event   string // efsm.Event.Key()
	to      string
	block   string
	target  string

	// Filled at plan time for updates, at job-execution time for guards
	// (the guard chain builds its examples from earlier solved guards).
	exs  []synth.ConcolicExample
	meta []exampleMeta

	// Filled by the job's Run closure.
	ran   bool
	expr  expr.Expr
	stats synth.Stats
	err   error
}

// recordProvenance folds every capture into the recorder in plan order.
// Jobs that never executed (the engine stops scheduling after a failure)
// are skipped: their absence is itself scheduling-dependent, and the
// determinism guarantee only covers runs that reach the same outcome.
func recordProvenance(rec *provenance.Recorder, p *planner) {
	if rec == nil {
		return
	}
	for _, cap := range p.caps {
		if !cap.ran {
			continue
		}
		h := &provenance.HoleRecord{
			Label:   cap.label,
			Kind:    cap.kind,
			Process: cap.process,
			From:    cap.from,
			Event:   cap.event,
			To:      cap.to,
			Block:   cap.block,
			Target:  cap.target,
		}
		h.Examples = make([]provenance.ExampleRecord, 0, len(cap.exs))
		for i, ex := range cap.exs {
			pre, post := ex.Pre.String(), ex.Post.String()
			er := provenance.ExampleRecord{
				Index:  i,
				Kind:   provenance.KindSnippet,
				Case:   -1,
				Pre:    pre,
				Post:   post,
				Digest: provenance.Digest(pre, post),
			}
			if i < len(cap.meta) {
				er.Kind = cap.meta[i].kind
				er.Source = cap.meta[i].source
				er.Case = cap.meta[i].caseIdx
			}
			h.Examples = append(h.Examples, er)
		}
		h.Iterations = provenance.TraceIterations(cap.stats.Trace)
		switch {
		case cap.err != nil:
			switch {
			case errors.Is(cap.err, synth.ErrUnrealizable):
				h.Status = provenance.StatusUnrealizable
			case errors.Is(cap.err, synth.ErrInconsistent):
				h.Status = provenance.StatusInconsistent
			default:
				h.Status = provenance.StatusFailed
			}
			h.Error = cap.err.Error()
		case len(cap.exs) == 0:
			h.Status = provenance.StatusUnconstrained
			if cap.expr != nil {
				h.Result = cap.expr.String()
			}
		default:
			h.Status = provenance.StatusSolved
			if cap.expr != nil {
				h.Result = cap.expr.String()
			}
		}
		rec.AddHole(h)
	}
}
