// Package provenance is the causal layer under the pipeline's telemetry:
// a structured, append-only run ledger that records, for every hole the
// engine solves, *why* the final expression is what it is — the concolic
// snippets that seeded the universe, each CEGIS iteration's candidate
// with the counterexample that killed it, each SMT concretization
// admitted, and the minimal witness set distinguishing the answer from
// the last rejected rival. Model-checker violations back-link to the
// records of every expression on the failing path.
//
// The ledger is assembled at the core layer in plan order from data the
// synthesizer already captures deterministically (synth.Stats.Trace), so
// it is byte-identical across worker counts and across cold/warm memo
// caches (the disk codec persists the trace; see DESIGN.md §16). A nil
// *Recorder is free: every method has a nil receiver no-op, and the
// assembly step is skipped entirely when no recorder is in the context.
package provenance

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"transit/internal/expr"
)

// Version identifies the ledger record schema.
const Version = 1

// Example-origin kinds. Updates are constrained by snippet cases; guards
// by the three §5.2 implication classes of their group's guard chain.
const (
	KindSnippet            = "snippet"                // update post from a concolic snippet case
	KindRequest            = "request"                // example supplied directly by a solve-job request
	KindGuardExcludesPre   = "guard-excludes-earlier" // earlier block's guard must exclude this one
	KindGuardCoversPre     = "guard-covers-own"       // guard must admit its own block's preconditions
	KindGuardExcludesLater = "guard-excludes-later"   // guard must exclude later blocks' preconditions
)

// Hole statuses.
const (
	StatusSolved        = "solved"
	StatusTrivial       = "trivial" // installed without a CEGIS solve (e.g. single-block guard)
	StatusUnrealizable  = "unrealizable"
	StatusInconsistent  = "inconsistent"
	StatusFailed        = "failed"
	StatusUnconstrained = "unconstrained" // no examples; default expression installed
)

// ExampleRecord is one concolic example admitted to a hole's universe,
// with its origin: for updates, the snippet case whose post-condition it
// encodes; for guards, which §5.2 implication class produced it.
type ExampleRecord struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	Source string `json:"source,omitempty"` // snippet label or block key
	Case   int    `json:"case"`             // snippet case ordinal (updates), -1 otherwise
	Pre    string `json:"pre"`
	Post   string `json:"post"`
	Digest string `json:"digest"`
}

// IterationRecord is one CEGIS round: the proposed candidate and either
// its acceptance or the concolic example that killed it plus the
// concretization admitted in response. Only worker-count-deterministic
// counters appear here.
type IterationRecord struct {
	Round      int    `json:"round"`
	Candidate  string `json:"candidate"`
	Accepted   bool   `json:"accepted"`
	KilledBy   int    `json:"killed_by"` // example index, -1 when accepted
	Witness    string `json:"witness,omitempty"`
	CounterOut string `json:"counter_out,omitempty"` // concretized output pinned at Witness
	Enumerated int64  `json:"enumerated"`
	Kept       int64  `json:"kept"`
	Resumed    bool   `json:"resumed,omitempty"`
	Restarted  bool   `json:"restarted,omitempty"`
}

// WitnessRecord names one member of the minimal witness set: the
// examples (and, when present, the killer counterexample) that
// distinguish the final expression from the last rejected rival.
type WitnessRecord struct {
	Example        int    `json:"example"`
	Kind           string `json:"kind,omitempty"`
	Source         string `json:"source,omitempty"`
	Digest         string `json:"digest,omitempty"`
	Counterexample string `json:"counterexample,omitempty"` // "env ⊢ out" from the killing round
}

// HoleRecord is the full causal chain for one synthesized expression.
type HoleRecord struct {
	ID      int    `json:"id"`
	Label   string `json:"label"`
	Kind    string `json:"kind"` // guard | update
	Process string `json:"process"`
	From    string `json:"from"`
	Event   string `json:"event"` // efsm.Event.Key()
	To      string `json:"to,omitempty"`
	Block   string `json:"block,omitempty"` // efsm.Snippet.BlockKey()
	Target  string `json:"target"`          // variable being synthesized

	Examples   []ExampleRecord   `json:"examples"`
	Iterations []IterationRecord `json:"iterations"`

	Status    string          `json:"status"`
	Result    string          `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Witnesses []WitnessRecord `json:"witnesses"`
}

// StepRecord is one step of a violation trace with its provenance join
// key and the ledger IDs of every hole whose expression fired on it.
type StepRecord struct {
	Index   int    `json:"index"`
	Action  string `json:"action"`
	Process string `json:"process,omitempty"`
	PID     int    `json:"pid,omitempty"`
	From    string `json:"from,omitempty"`
	Event   string `json:"event,omitempty"`
	To      string `json:"to,omitempty"`
	Holes   []int  `json:"holes"`
}

// ViolationRecord back-links one model-checker violation to the ledger.
type ViolationRecord struct {
	Kind   string       `json:"kind"`
	Name   string       `json:"name"`
	Detail string       `json:"detail,omitempty"`
	Steps  []StepRecord `json:"steps"`
}

// Ledger is one run's complete record set.
type Ledger struct {
	Version    int                `json:"version"`
	Run        string             `json:"run,omitempty"`
	Holes      []*HoleRecord      `json:"holes"`
	Violations []*ViolationRecord `json:"violations,omitempty"`
}

// Digest is the short content address of a (pre, post) example pair used
// throughout the ledger: the first 12 hex digits of sha256(pre⇒post).
func Digest(pre, post string) string {
	sum := sha256.Sum256([]byte(pre + " => " + post))
	return hex.EncodeToString(sum[:])[:12]
}

// RenderEnv renders a valuation deterministically: "k=v" pairs joined by
// a single space, keys sorted.
func RenderEnv(env expr.Env) string {
	if len(env) == 0 {
		return ""
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]byte, 0, 16*len(keys))
	for i, k := range keys {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, k...)
		out = append(out, '=')
		out = append(out, env[k].String()...)
	}
	return string(out)
}

// ComputeWitnesses fills h.Witnesses with the minimal set distinguishing
// the final expression from the last rejected rival:
//
//   - accepted on the first round: every example constrained the answer
//     equally, so the witness set is all of them;
//   - otherwise: the example that killed the last rival, annotated with
//     the counterexample (witness valuation ⊢ pinned output) admitted in
//     that round.
//
// Holes that never solved (or never ran CEGIS) get an empty set.
func ComputeWitnesses(h *HoleRecord) {
	h.Witnesses = []WitnessRecord{}
	if h.Status != StatusSolved || len(h.Iterations) == 0 {
		return
	}
	witness := func(exIdx int, counter string) WitnessRecord {
		w := WitnessRecord{Example: exIdx, Counterexample: counter}
		if exIdx >= 0 && exIdx < len(h.Examples) {
			ex := h.Examples[exIdx]
			w.Kind, w.Source, w.Digest = ex.Kind, ex.Source, ex.Digest
		}
		return w
	}
	if len(h.Iterations) == 1 {
		for i := range h.Examples {
			h.Witnesses = append(h.Witnesses, witness(i, ""))
		}
		return
	}
	last := h.Iterations[len(h.Iterations)-2]
	if last.KilledBy < 0 {
		// Defensive: a non-final round without a killer should not exist.
		for i := range h.Examples {
			h.Witnesses = append(h.Witnesses, witness(i, ""))
		}
		return
	}
	counter := last.Witness
	if last.CounterOut != "" {
		counter += " ⊢ " + last.CounterOut
	}
	h.Witnesses = append(h.Witnesses, witness(last.KilledBy, counter))
}

// Recorder accumulates one run's ledger. All methods are safe on a nil
// receiver (no-ops) and safe for concurrent use, though the core layer
// appends holes single-threaded in plan order to keep the ledger
// worker-count-deterministic.
type Recorder struct {
	mu     sync.Mutex
	ledger Ledger
}

// NewRecorder returns an empty recorder labelled with the run name.
func NewRecorder(run string) *Recorder {
	return &Recorder{ledger: Ledger{Version: Version, Run: run, Holes: []*HoleRecord{}}}
}

// AddHole appends a hole record, assigning its ledger ID, and computes
// its witness set.
func (r *Recorder) AddHole(h *HoleRecord) {
	if r == nil || h == nil {
		return
	}
	ComputeWitnesses(h)
	r.mu.Lock()
	h.ID = len(r.ledger.Holes)
	r.ledger.Holes = append(r.ledger.Holes, h)
	r.mu.Unlock()
}

// AddViolation appends a violation record, resolving each step's hole
// back-links by the (process, from state, event key) join against the
// holes recorded so far.
func (r *Recorder) AddViolation(v *ViolationRecord) {
	if r == nil || v == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range v.Steps {
		s := &v.Steps[i]
		s.Holes = []int{}
		if s.Process == "" || s.Event == "" {
			continue
		}
		for _, h := range r.ledger.Holes {
			if h.Process == s.Process && h.From == s.From && h.Event == s.Event {
				s.Holes = append(s.Holes, h.ID)
			}
		}
	}
	r.ledger.Violations = append(r.ledger.Violations, v)
}

// Ledger returns a snapshot of the accumulated ledger. The hole and
// violation records are shared, not copied; callers must treat them as
// read-only.
func (r *Recorder) Ledger() *Ledger {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.ledger
	l.Holes = append([]*HoleRecord(nil), r.ledger.Holes...)
	l.Violations = append([]*ViolationRecord(nil), r.ledger.Violations...)
	return &l
}

// Tail returns a compact ledger snapshot for the flight recorder: the
// run label, total hole count, the last n hole records, and every
// violation. Safe on a nil receiver.
func (r *Recorder) Tail(n int) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	holes := r.ledger.Holes
	if len(holes) > n {
		holes = holes[len(holes)-n:]
	}
	return map[string]any{
		"version":     r.ledger.Version,
		"run":         r.ledger.Run,
		"holes_total": len(r.ledger.Holes),
		"tail":        append([]*HoleRecord(nil), holes...),
		"violations":  append([]*ViolationRecord(nil), r.ledger.Violations...),
	}
}

// Holes returns the number of holes recorded so far.
func (r *Recorder) Holes() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ledger.Holes)
}

type ctxKey struct{}

// WithRecorder attaches the recorder to the context; a nil recorder
// returns the context unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromCtx returns the recorder in the context, or nil.
func FromCtx(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// NDJSON line wrappers. The header line carries the version and run
// label; every subsequent line is one hole or violation record, so the
// file is greppable and jq-able without loading the whole ledger.
type lineHeader struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
	Run     string `json:"run,omitempty"`
}

type lineHole struct {
	Type string `json:"type"`
	*HoleRecord
}

type lineViolation struct {
	Type string `json:"type"`
	*ViolationRecord
}

// WriteNDJSON writes the ledger as NDJSON: a header line, one line per
// hole in ID order, one line per violation. Output is deterministic for
// a deterministic ledger (encoding/json emits struct fields in order and
// all map-shaped data is pre-rendered to sorted strings).
func (l *Ledger) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(lineHeader{Type: "provenance", Version: l.Version, Run: l.Run}); err != nil {
		return err
	}
	for _, h := range l.Holes {
		if err := enc.Encode(lineHole{Type: "hole", HoleRecord: h}); err != nil {
			return err
		}
	}
	for _, v := range l.Violations {
		if err := enc.Encode(lineViolation{Type: "violation", ViolationRecord: v}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a ledger previously written by WriteNDJSON.
func Read(r io.Reader) (*Ledger, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	l := &Ledger{Holes: []*HoleRecord{}}
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("provenance: bad ledger line: %w", err)
		}
		switch probe.Type {
		case "provenance":
			var hd lineHeader
			if err := json.Unmarshal(line, &hd); err != nil {
				return nil, err
			}
			l.Version, l.Run = hd.Version, hd.Run
		case "hole":
			var h HoleRecord
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, err
			}
			l.Holes = append(l.Holes, &h)
		case "violation":
			var v ViolationRecord
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, err
			}
			l.Violations = append(l.Violations, &v)
		default:
			if first {
				return nil, fmt.Errorf("provenance: not a ledger (first line type %q)", probe.Type)
			}
			// Ignore foreign lines (e.g. a ledger embedded in a flight dump).
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// Hole returns the record with the given ID, or nil.
func (l *Ledger) Hole(id int) *HoleRecord {
	for _, h := range l.Holes {
		if h.ID == id {
			return h
		}
	}
	return nil
}

// FindHoles returns records whose label contains the query (exact ID
// match when the query parses as an integer is the caller's concern).
func (l *Ledger) FindHoles(query string) []*HoleRecord {
	var out []*HoleRecord
	for _, h := range l.Holes {
		if query == "" || containsFold(h.Label, query) || containsFold(h.Target, query) {
			out = append(out, h)
		}
	}
	return out
}

func containsFold(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	if len(sub) > len(s) {
		return false
	}
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			if lower(s[i+j]) != lower(sub[j]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
