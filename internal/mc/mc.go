// Package mc is an explicit-state model checker for efsm systems, playing
// the role Murϕ plays in the paper's methodology: it enumerates the
// reachable state space of a finite protocol instance by breadth-first
// search over canonically hashed states, checks safety invariants and
// execution-semantics rules (unexpected messages, guard determinism) at
// every state, and reconstructs a shortest counterexample trace when a
// violation is found.
//
// The search runs in depth-synchronized rounds over one pointer-free
// visited table (see table.go and frontier.go), optionally canonicalizing
// states under permutation of the symmetric process IDs (see
// efsm.SymGroup). The table stores each state's canonical key and how it
// was first reached, and a counterexample is replayed from the initial
// state, so the worker count changes only the wall-clock, never the
// Result: budgets, counters, and counterexample traces are
// worker-count-invariant by construction.
package mc

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/efsm"
	"transit/internal/obs"
)

// Invariant is a named safety property over global states. When symmetry
// reduction is on, invariants must themselves be PID-symmetric (hold on a
// state iff they hold on every PID permutation of it) — all coherence
// properties of interest (SWMR, at-most-one-owner) are.
type Invariant struct {
	Name string
	// Check returns ok, or false with a human-readable detail.
	Check func(r *efsm.Runtime, st *efsm.State) (bool, string)
}

// Options bounds the search.
type Options struct {
	// MaxStates caps explored states (0 = 1,000,000). With symmetry
	// reduction on, the cap counts canonical states.
	MaxStates int
	// CheckDeadlock reports states with no enabled action as violations.
	CheckDeadlock bool
	// ProgressInterval paces the mc.progress heartbeat marks (states,
	// states/sec, queue depth). 0 means the 1s default; negative disables
	// heartbeats. Marks are emitted from a wall-clock ticker, so
	// protocols with slow transition or invariant functions still
	// heartbeat on time.
	ProgressInterval time.Duration
	// Workers is the number of frontier workers (0 or 1 = sequential).
	// Results are identical for every worker count.
	Workers int
	// SymmetryReduction canonicalizes states under permutation of the
	// replicated process IDs, exploring one representative per orbit.
	// It silently disables itself (Result.SymmetryApplied reports the
	// outcome) when the system is not PID-symmetric — a PID or partial-set
	// literal in a transition, an Asymmetric process definition, fewer
	// than 2 or more than efsm.MaxSymmetryPIDs caches.
	SymmetryReduction bool
}

// ViolationKind classifies a counterexample.
type ViolationKind int

const (
	// InvariantViolation: a safety invariant failed.
	InvariantViolation ViolationKind = iota
	// SemanticsProblem: an unexpected message or nondeterministic guard
	// set (the protocol is underspecified or overspecified).
	SemanticsProblem
	// Deadlock: a state with no enabled action.
	Deadlock
)

func (k ViolationKind) String() string {
	switch k {
	case InvariantViolation:
		return "invariant violation"
	case SemanticsProblem:
		return "semantics problem"
	default:
		return "deadlock"
	}
}

// TraceStep is one step of a counterexample: the action taken and the
// state reached.
type TraceStep struct {
	Action string // empty for the initial state
	State  string
}

// Violation describes a counterexample. Traces are always rendered in the
// original PID frame: when symmetry reduction found the violation on a
// canonical representative, the path replays through the retained
// permutations so every step is a genuine execution of the input system.
type Violation struct {
	Kind   ViolationKind
	Name   string // invariant name or problem kind
	Detail string
	Trace  []TraceStep
	// actions is the structured action path, retained for the
	// message-sequence-chart renderer (FormatMSC).
	actions []efsm.Action
}

// Actions exposes the structured action path of the counterexample (the
// input to FormatMSC and to replay tooling).
func (v *Violation) Actions() []efsm.Action { return v.actions }

// StepRef identifies the transition taken at one step of a violation
// trace in join-key terms: which process definition, from which control
// state, on which event. The provenance ledger uses these keys to
// back-link a failing path to the records of every synthesized
// expression that fired along it.
type StepRef struct {
	Index   int    // index into Trace (step 0 is the initial state)
	Process string // process definition name
	PID     int
	From    string
	Event   string // efsm.Event.Key()
	To      string
}

// StepRefs resolves the structured action path against a runtime built
// over the same system (instance indices and transition pointers are
// runtime-relative). One ref is produced per action, indexed to match
// the corresponding Trace step.
func (v *Violation) StepRefs(r *efsm.Runtime) []StepRef {
	refs := make([]StepRef, 0, len(v.actions))
	for i, a := range v.actions {
		ref := StepRef{Index: i + 1, PID: -1}
		if r != nil && a.Inst >= 0 && a.Inst < len(r.Insts) {
			inst := r.Insts[a.Inst]
			ref.Process = inst.Def.Name
			ref.PID = inst.PID
		}
		if a.Trans != nil {
			ref.From = a.Trans.From
			ref.Event = a.Trans.Event.Key()
			ref.To = a.Trans.To
		}
		refs = append(refs, ref)
	}
	return refs
}

func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n  %s\n", v.Kind, v.Name, v.Detail)
	for i, step := range v.Trace {
		if step.Action == "" {
			fmt.Fprintf(&sb, "  [%d] (initial) %s\n", i, step.State)
		} else {
			fmt.Fprintf(&sb, "  [%d] %s\n      -> %s\n", i, step.Action, step.State)
		}
	}
	return sb.String()
}

// Result is the outcome of a model-checking run.
type Result struct {
	// OK is true when the search completed (within bounds) with no
	// violation.
	OK bool
	// Complete is true when the full reachable space was explored (no
	// budget abort, no cancellation).
	Complete bool
	// States counts explored states — canonical representatives when
	// symmetry reduction applied, concrete states otherwise.
	States      int
	Transitions int
	Depth       int
	Violation   *Violation
	// Elapsed is the wall-clock duration of the search; StatesPerSec is
	// the exploration rate States/Elapsed (0 for instantaneous runs).
	Elapsed      time.Duration
	StatesPerSec float64
	// SymmetryApplied reports whether symmetry reduction was actually in
	// effect (requested and the system qualified).
	SymmetryApplied bool
	// ReductionFactor estimates how many concrete states each explored
	// state stood for: the mean orbit size (1 when reduction was off).
	ReductionFactor float64
}

// CheckCtx explores the reachable states of the runtime and verifies
// the invariants. It returns the first (BFS-shortest) violation found.
// The search polls the context every round (and workers poll it during
// long expansions), so long-running searches are cancellable and honor
// deadlines the same way the Options.MaxStates budget bounds them. On
// cancellation the partial Result (states explored so far) is returned
// alongside the context's error.
func CheckCtx(ctx context.Context, r *efsm.Runtime, invs []Invariant, opts Options) (*Result, error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 1_000_000
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	var group *efsm.SymGroup
	if opts.SymmetryReduction {
		// Auto-disable on systems that do not qualify: the checker still
		// answers, just without the reduction.
		if g, err := efsm.NewSymGroup(r); err == nil {
			group = g
		}
	}
	res := &Result{SymmetryApplied: group != nil}
	ctx, span := obs.Start(ctx, "mc.bfs",
		obs.Int("max_states", maxStates),
		obs.Int("workers", workers), obs.Bool("symmetry", group != nil))
	start := time.Now()
	// publish adds the search's totals to the metrics registry's counters
	// as deltas over what it published before, and sets the gauges: the
	// heartbeat publishes the running totals, so /metrics scrapes see
	// mc.states advance during the search, and the end of the run the
	// final ones, so the counters end equal to the Result. The heartbeat's
	// ticker goroutine has exited before that last call, so published is
	// never touched by two goroutines at once.
	reg := obs.MetricsFrom(ctx)
	var published struct{ states, transitions, orbit int64 }
	publish := func(states, transitions, orbit, depth int64) {
		if reg == nil {
			return
		}
		reg.Counter("mc.states").Add(states - published.states)
		reg.Counter("mc.transitions").Add(transitions - published.transitions)
		reg.Counter("mc.orbit_states").Add(orbit - published.orbit)
		published.states, published.transitions, published.orbit = states, transitions, orbit
		reg.Gauge("mc.frontier_depth").Set(depth)
		var milli int64
		if states > 0 {
			milli = orbit * 1000 / states
		}
		reg.Gauge("mc.reduction_factor_milli").Set(milli)
	}
	var orbitSum int64
	// stopHeartbeat stops the heartbeat and waits for its goroutine to
	// exit; it stays a no-op when there is none.
	stopHeartbeat := func() {}
	defer func() {
		stopHeartbeat()
		res.Elapsed = time.Since(start)
		if secs := res.Elapsed.Seconds(); secs > 0 {
			res.StatesPerSec = float64(res.States) / secs
		}
		if res.States > 0 {
			res.ReductionFactor = float64(orbitSum) / float64(res.States)
		}
		span.SetAttr(obs.Int("states", res.States),
			obs.Int("transitions", res.Transitions),
			obs.Int("depth", res.Depth),
			obs.Bool("ok", res.OK),
			obs.Bool("complete", res.Complete),
			obs.Float("states_per_sec", res.StatesPerSec),
			obs.Float("reduction_factor", res.ReductionFactor))
		span.End()
		if reg != nil {
			reg.Counter("mc.runs").Inc()
			publish(int64(res.States), int64(res.Transitions), orbitSum, int64(res.Depth))
			reg.Histogram("mc.check_ms").Observe(res.Elapsed)
		}
	}()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("mc: search aborted after %d states: %w", res.States, err)
	}

	s := &search{r: r, group: group, t: newTable(), deadlock: opts.CheckDeadlock}
	// Each worker has its own arena and, under reduction, its own canonical
	// encoder over the shared (immutable) group.
	m := &merger{xs: make([]expander, workers)}
	for w := range m.xs {
		m.xs[w].step = r.NewStepper()
		if group != nil {
			m.xs[w].enc = group.Encoder()
		}
	}

	init := r.Initial()
	key, rank, initOrbit := s.appendKey(m.xs[0].enc, nil, init)
	if _, err := s.t.insert(key, s.t.hash(key), 0, 0, uint16(rank)); err != nil {
		return res, err
	}
	cur, next := &frontier{}, &frontier{}
	cur.reset()
	cur.add(r.AppendPermute(nil, init, s.perm(rank)))
	res.States = 1
	orbitSum = int64(initOrbit)

	// The initial state is checked in the original frame, like every
	// reported violation.
	for _, inv := range invs {
		if ok, detail := inv.Check(r, init); !ok {
			res.Violation = &Violation{Kind: InvariantViolation, Name: inv.Name, Detail: detail,
				Trace: []TraceStep{{State: r.FormatState(init)}}}
			return res, nil
		}
	}

	// Heartbeat plumbing: the round loop mirrors its counters into
	// atomics, and a wall-clock ticker goroutine marks mc.progress from
	// them every ProgressInterval, so protocols whose transition or
	// invariant functions are slow still heartbeat on time for /runs and
	// the flight recorder.
	interval := opts.ProgressInterval
	if interval == 0 {
		interval = time.Second
	}
	var progStates, progTransitions, progDepth, progQueue atomic.Int64
	var progFrontier, progOrbit atomic.Int64
	progStates.Store(1)
	progQueue.Store(1)
	progOrbit.Store(orbitSum)
	if span != nil && interval > 0 {
		stop, exited := make(chan struct{}), make(chan struct{})
		stopHeartbeat = func() {
			close(stop)
			<-exited
		}
		go func() {
			defer close(exited)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					states, transitions, frontier := progStates.Load(), progTransitions.Load(), progFrontier.Load()
					span.Mark("mc.progress",
						obs.Int64("states", states),
						obs.Int64("transitions", transitions),
						obs.Int64("queue", progQueue.Load()),
						obs.Int64("depth", progDepth.Load()),
						obs.Int64("frontier_depth", frontier),
						obs.Float("states_per_sec", float64(states)/now.Sub(start).Seconds()))
					publish(states, transitions, progOrbit.Load(), frontier)
				case <-stop:
					return
				}
			}
		}()
	}

	abort := func() (*Result, error) {
		return res, fmt.Errorf("mc: search aborted after %d states: %w", res.States, ctx.Err())
	}

	// lo is the id of the frontier's first state: a depth's states have
	// consecutive ids.
	var lo uint32
	var win []cref
	depth := 0
	for cur.len() > 0 {
		if ctx.Err() != nil {
			return abort()
		}

		// Phase A — expand: workers take frontier entries by stride,
		// reading the table lock-free (no one writes it until the count),
		// dropping successors it or the worker already holds, and sorting
		// the rest by key. Frontier states with semantics problems (or,
		// when enabled, no enabled action) are not expanded; the least
		// frontier index — least canonical key — wins the round.
		var wg sync.WaitGroup
		for w := range m.xs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s.expand(ctx, &m.xs[w], cur, lo, w, workers)
			}(w)
		}
		wg.Wait()
		over := -1
		for w := range m.xs {
			res.Transitions += int(m.xs[w].trans)
			if o := m.xs[w].over; o >= 0 && (over < 0 || o < over) {
				over = o
			}
		}
		if ctx.Err() != nil {
			return abort()
		}
		if over >= 0 {
			return res, fmt.Errorf("%w: state %d at depth %d has more than %d actions",
				ErrTableLimit, lo+uint32(over), depth, maxActions)
		}

		// Resolve problems/deadlocks: strided assignment means each
		// worker's first hit is its least index, and the global least
		// index is the least canonical key at this depth.
		var prob *problemAt
		for w := range m.xs {
			if p := m.xs[w].prob; p != nil && (prob == nil || p.idx < prob.idx) {
				prob = p
			}
		}
		if prob != nil {
			id := lo + uint32(prob.idx)
			if prob.deadlock {
				steps, acts, _ := s.buildTrace(id)
				res.Violation = &Violation{Kind: Deadlock, Name: "deadlock",
					Detail: "no enabled action", Trace: steps, actions: acts}
			} else {
				res.Violation = s.makeViolation(id, SemanticsProblem, prob.name, prob.detail, nil, 0)
			}
			return res, nil
		}

		// Phase B — merge: a k-way merge of the workers' runs keeps, per
		// new key, the candidate least in (parent id, action index), in key
		// order; the next frontier takes their representatives in that
		// order.
		win = m.merge(win)
		next.reset()
		for _, c := range win {
			next.add(m.rep(c))
		}

		// Phase C — invariants on the accepted states (representative
		// frame; invariants must be symmetric when reduction is on). The
		// least accepted index with a violation wins; per state, the
		// least invariant index.
		var vAt *violAt
		if len(invs) > 0 && next.len() > 0 {
			viols := make([]*violAt, workers)
			var wgI sync.WaitGroup
			for w := 0; w < workers; w++ {
				wgI.Add(1)
				go func(w int) {
					defer wgI.Done()
					var st efsm.State
					for i := w; i < next.len(); i += workers {
						st = next.state(i)
						for vi, inv := range invs {
							if ok, detail := inv.Check(r, &st); !ok {
								viols[w] = &violAt{idx: i, inv: vi, detail: detail}
								return
							}
						}
					}
				}(w)
			}
			wgI.Wait()
			for _, v := range viols {
				if v != nil && (vAt == nil || v.idx < vAt.idx) {
					vAt = v
				}
			}
		}

		// Sequential accounting in key order: ids in key order, exact
		// state counting, exact budget cut, and the violation-vs-budget
		// precedence of the sequential checker (a state's violation is
		// reported before its budget overflow).
		if len(win) > 0 {
			res.Depth = depth + 1
		}
		lo = uint32(s.t.len())
		for i, c := range win {
			cd := m.cand(c)
			id, err := s.t.insert(m.key(c), cd.hash, cd.parent, cd.act, cd.sigma)
			if err != nil {
				return res, err
			}
			res.States++
			orbitSum += int64(cd.orbit)
			if vAt != nil && vAt.idx == i {
				res.Violation = s.makeViolation(id, InvariantViolation,
					invs[vAt.inv].Name, vAt.detail, invs, vAt.inv)
				return res, nil
			}
			if res.States >= maxStates {
				return res, fmt.Errorf("%w: %d of %d states", ErrStateBudget, res.States, maxStates)
			}
		}

		progStates.Store(int64(res.States))
		progTransitions.Store(int64(res.Transitions))
		progDepth.Store(int64(res.Depth))
		progQueue.Store(int64(len(win)))
		progFrontier.Store(int64(depth + 1))
		progOrbit.Store(orbitSum)

		cur, next = next, cur
		depth++
	}
	res.OK = true
	res.Complete = true
	return res, nil
}

// makeViolation reconstructs the original-frame trace to state id and
// rebuilds the human-readable name/detail from the replayed final state,
// so counterexamples always describe the input system even when the
// violation was found on a canonical representative.
func (s *search) makeViolation(id uint32, kind ViolationKind,
	name, detail string, invs []Invariant, invIdx int) *Violation {
	steps, acts, final := s.buildTrace(id)
	switch kind {
	case InvariantViolation:
		name = invs[invIdx].Name
		if ok, d := invs[invIdx].Check(s.r, final); !ok {
			detail = d
		}
	case SemanticsProblem:
		if _, probs := s.r.Actions(final); len(probs) > 0 {
			name = probs[0].Kind.String()
			detail = probs[0].Detail
		}
	}
	return &Violation{Kind: kind, Name: name, Detail: detail, Trace: steps, actions: acts}
}

// buildTrace walks parent ids from state id back to the initial state,
// then replays the path forward twice over. It rebuilds each
// representative the search expanded, from the initial state's: Actions of
// the parent's representative, the stored action index, Apply, then
// Permute by the stored sigma. Those are the very vectors the search
// expanded, so the actions taken are the ones it recorded. The trace
// itself runs in the original PID frame: each action lives in its parent
// representative's frame, so it is mapped through the inverse of the
// accumulated permutation before being applied, and sigma is composed on
// afterwards. With symmetry reduction off every permutation is the
// identity and this is a plain replay. The returned state is the final
// (violating) state in the original frame.
func (s *search) buildTrace(id uint32) ([]TraceStep, []efsm.Action, *efsm.State) {
	r, t := s.r, s.t
	var path []uint32
	for ; id != 0; id = t.parent[id] {
		path = append(path, id)
	}
	st := r.Initial()
	rho := s.perm(int(t.sigma[0]))
	rep := r.Permute(st, rho)
	trace := []TraceStep{{State: r.FormatState(st)}}
	actions := make([]efsm.Action, 0, len(path))
	for k := len(path) - 1; k >= 0; k-- {
		h := path[k]
		acts, _ := r.Actions(rep)
		a := acts[t.act[h]]
		sigma := s.perm(int(t.sigma[h]))
		rep = r.Permute(r.Apply(rep, a), sigma)
		a = r.PermuteAction(a, rho.Inverse())
		st = r.Apply(st, a)
		rho = sigma.Compose(rho)
		trace = append(trace, TraceStep{Action: r.FormatAction(a), State: r.FormatState(st)})
		actions = append(actions, a)
	}
	return trace, actions, st
}
