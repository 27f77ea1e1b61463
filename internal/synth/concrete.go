package synth

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
)

// SolveConcreteCtx implements Algorithm 1: enumerate expressions of
// increasing size over the vocabulary, pruning candidates whose signature
// (vector of evaluations over the concrete examples) has been seen
// before, until one matches the goal signature (the vector of example
// outputs).
//
// With an empty example set, every expression is indistinguishable from
// every other of its type, so the first enumerated expression of the
// output type is returned — exactly the seeding behaviour Algorithm 2
// relies on.
//
// The enumeration loop polls the context and aborts with its error once
// it is cancelled or its deadline passes. The search runs under a
// "synth.enumerate" span with one "synth.size" child per size tier
// entered.
func SolveConcreteCtx(ctx context.Context, p Problem, examples []ConcreteExample, limits Limits) (expr.Expr, ConcreteStats, error) {
	e, stats, _, _, err := solveConcrete(ctx, nil, p, examples, limits, deadlineOf(limits), nil, false)
	return e, stats, err
}

// now is the clock Limits.Timeout is read on: deadlineOf starts it and
// expired polls it. Tests replace it to count the polls.
var now = time.Now

// deadlineOf starts a call's Limits.Timeout clock: the zero time when
// there is no timeout.
func deadlineOf(l Limits) time.Time {
	if l.Timeout <= 0 {
		return time.Time{}
	}
	return now().Add(l.Timeout)
}

// expired polls deadline; the zero time never expires.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && now().After(deadline)
}

// afterResumedRound, when set, sees every resumed enumerator once its walk
// ends, before a fallback replaces it. Tests set it to check the extended
// pools against the evaluator.
var afterResumedRound func(en *enumerator)

// solveConcrete is the shared driver behind SolveConcreteCtx and the
// CEGIS bank-reuse path: it validates, opens the enumeration span, builds
// a fresh enumerator or resumes the supplied bank, runs the search, and —
// when wantBank is set and the search succeeded — harvests the enumerator
// state for the next round. A resumed search that exhausts the size bound
// transparently restarts from scratch (the stale pools may lack entries
// that only became distinguishable under the newest concretizations), so
// bank reuse never loses completeness. The bool result reports that the
// search actually resumed the bank: a bank that is usable but proven
// stale up front is skipped, and the round counts as a restart, not a
// reuse. Every enumerator of the call lays its pools out by sc (nil: the
// problem's own) and stops at deadline, the end of the caller's Timeout
// (zero: none).
func solveConcrete(ctx context.Context, sc *schema, p Problem, examples []ConcreteExample, limits Limits,
	deadline time.Time, bk *bank, wantBank bool) (expr.Expr, ConcreteStats, *bank, bool, error) {
	limits = limits.WithDefaults()
	if err := p.validate(); err != nil {
		return nil, ConcreteStats{}, nil, false, err
	}
	if sc == nil {
		sc = newSchema(p)
	}
	if err := ctx.Err(); err != nil {
		return nil, ConcreteStats{}, nil, false, fmt.Errorf("synth: enumeration aborted: %w", err)
	}
	for i, c := range examples {
		if c.Out.Type() != p.Output.VT {
			return nil, ConcreteStats{}, nil, false, fmt.Errorf("synth: example %d output has type %s, want %s",
				i, c.Out.Type(), p.Output.VT)
		}
	}
	resume := bk.usable(examples, limits)
	stale := false
	var en *enumerator
	if resume {
		// resumeEnumerator returns nil when the shadow store proves the
		// bank stale — some previously-pruned candidate escaped every
		// pooled class under the new concretizations — in which case the
		// resumed walk could only end in exhaustion and restart, so the
		// round restarts fresh immediately.
		en = resumeEnumerator(ctx, sc, p, examples, limits, deadline, bk)
		if en == nil {
			resume, stale = false, true
		}
	}
	ctx, span := obs.Start(ctx, "synth.enumerate",
		obs.Int("examples", len(examples)), obs.Int("max_size", limits.MaxSize),
		obs.Bool("resumed", resume), obs.Bool("bank_stale", stale))
	if reg := obs.MetricsFrom(ctx); reg != nil {
		if resume {
			reg.Counter("synth.bank_reused").Inc()
		}
		if stale {
			reg.Counter("synth.bank_stale").Inc()
		}
	}
	if en == nil {
		en = newEnumerator(ctx, sc, p, examples, limits, deadline, wantBank)
		en.initFresh()
	} else {
		en.ctx = ctx
	}
	res, err := en.run()
	if resume && afterResumedRound != nil {
		afterResumedRound(en)
	}
	stats := en.stats
	if stale {
		// A stale-skip counts as a restart: the round ran a fresh search,
		// it just skipped the doomed resumed walk in front of it.
		stats.Restarts++
	}
	if resume && err != nil && en.exhausted {
		// Fallback: restart from size 1. The resumed pools are frozen at
		// the previous rounds' signature partition; an expression whose
		// subterms only became distinguishable under the new
		// concretizations is unreachable from them, so a clean exhaustion
		// of the resumed search is retried without the bank before it is
		// believed. Stats report the total work of both attempts.
		if reg := obs.MetricsFrom(ctx); reg != nil {
			reg.Counter("synth.bank_fallback").Inc()
		}
		en = newEnumerator(ctx, sc, p, examples, limits, deadline, true)
		en.initFresh()
		res, err = en.run()
		stats.Restarts++
		stats.Enumerated += en.stats.Enumerated
		stats.Kept += en.stats.Kept
		stats.InterpPruned += en.stats.InterpPruned
		if en.stats.MaxSizeSeen > stats.MaxSizeSeen {
			stats.MaxSizeSeen = en.stats.MaxSizeSeen
		}
		stats.Elapsed += en.stats.Elapsed
	}
	if stats.InterpPruned > 0 {
		if reg := obs.MetricsFrom(ctx); reg != nil {
			reg.Counter("synth.interp_pruned").Add(stats.InterpPruned)
		}
	}
	span.SetAttr(obs.Int64("enumerated", stats.Enumerated),
		obs.Int64("kept", stats.Kept),
		obs.Int("max_size_seen", stats.MaxSizeSeen),
		obs.Int64("interp_pruned", stats.InterpPruned),
		obs.Bool("found", res != nil))
	span.End()
	var nbk *bank
	if err == nil && wantBank {
		nbk = en.harvest()
	}
	return res, stats, nbk, resume, err
}

// interpProbes builds the deterministic probe interpretations the shadow
// store indexes full signatures by. The set is fixed by the problem alone —
// (universe, input variables) — so every round of one CEGIS solve keys
// shadow classes by the same probe prefix, which is what lets a bank
// carry shadows across rounds.
//
// The probes are chosen where CEGIS concretizations actually land: the
// saturated corner (every variable at its domain maximum — the corner the
// SMT hint steers every witness toward, so the first concretization is
// usually already separated by probe 0), the zero corner, and an
// alternating max/zero valuation that breaks ties between same-typed
// variables. Three probes keep the per-candidate evaluation overhead small
// while splitting exactly the classes whose merged members tend to become
// distinguishable a round later — the splits that make a resumed bank
// stale.
func interpProbes(p Problem) []expr.Env {
	if len(p.Vars) == 0 {
		return nil
	}
	sat := make(expr.Env, len(p.Vars))
	zero := make(expr.Env, len(p.Vars))
	alt := make(expr.Env, len(p.Vars))
	for i, v := range p.Vars {
		sat[v.Name] = expr.MaxOf(p.U, v.VT)
		zero[v.Name] = expr.ZeroOf(v.VT)
		if i%2 == 0 {
			alt[v.Name] = expr.MaxOf(p.U, v.VT)
		} else {
			alt[v.Name] = expr.ZeroOf(v.VT)
		}
	}
	return []expr.Env{sat, zero, alt}
}

// maxAlts bounds the alts carried per bank. Beyond it, further splits go
// undetected by the adopt-time probe, like any split no shadow saw.
const maxAlts = 96

// maxShadows bounds the shadow store per solve. Beyond it, new
// probe-distinct duplicates are dropped: completeness is unaffected
// (shadows only make staleness detection sharper; the exhaustion-restart
// fallback still covers whatever was dropped), so the cap just bounds
// memory on signature-rich vocabularies.
const maxShadows = 1 << 13

// shadowTrackMaxSize bounds the candidate sizes shadow tracking watches.
// Pool staleness is caused by subterm classes merging: a pruned small
// expression that later rounds distinguish invalidates every larger
// composition that needed it, so the small tiers are where splits are
// both detectable and meaningful — while the large tiers hold the
// overwhelming majority of candidates (tier growth is exponential) and
// would pay the per-duplicate probe evaluations for no extra detection
// power. Tracking stops above this size, keeping the overhead a few
// percent of enumeration on every Table 3 vocabulary.
const shadowTrackMaxSize = 5

type enumerator struct {
	ctx      context.Context
	p        Problem
	examples []ConcreteExample
	limits   Limits
	// deadline ends the call's Limits.Timeout (zero: none); start times
	// this enumerator's own Elapsed.
	deadline time.Time
	start    time.Time
	stats    ConcreteStats

	// ops and stores are the problem's functions and types (pool.go); ops
	// and outStore come from the call's schema.
	// pools[s][t] holds the ranks of the retained entries of size s in
	// store t, in canonical enumeration order; a store's seen index is the
	// pruning table, one representative per signature class.
	ops      []op
	stores   []store
	outStore int
	pools    [][][]uint32

	// nSig is the key's coordinate count, one per example; goal is the
	// packed example outputs an output-typed key must equal. noGoal
	// suppresses the goal test: the unrealizability atlas enumerates
	// classes over examples whose outputs are never compared.
	nSig   int
	goal   []byte
	noGoal bool

	// Shadow-class state (interpretation reduction, DESIGN.md §15). The
	// shadowProbes valuations refine the example partition on the side:
	// their nProbe coordinates head every row, and a store's full index
	// holds the whole rows of its tracked representatives and shadows — the
	// full (probe + example) signature set. shadows holds the
	// probe-distinct duplicates themselves. nProbe is 0 when reduction is
	// off or no bank will consume the shadows.
	shadowProbes []expr.Env
	nProbe       int
	shadows      []ref
	// trackTier is set per size tier: shadow tracking is active and the
	// tier is within shadowTrackMaxSize.
	trackTier bool

	// Split shadows carried by the bank, set only on resumed rounds with
	// live splits; consumed by the adopt-time shallowAltDoom probe.
	alts []ref

	// Scratch, so that the hot path allocates only the columns and rows of
	// candidates that survive pruning: the candidate's row, its children's
	// rows, the decoded arguments of compose's Apply path, and the per-tier
	// odometer state.
	rowBuf    []byte
	kidRows   [][]byte
	argBuf    []expr.Value
	kidBuf    []uint32
	shareBuf  []int
	posBuf    []int
	unitBuf   []tierUnit
	unitPools [][]uint32

	// Resume cursor: tiers below resumeSize are already banked; within
	// tier resumeSize the first resumeSkip candidates were consumed by
	// the previous round (the last of them was its winner). resumeCap,
	// when nonzero, bounds a resumed search below Limits.MaxSize: a stale
	// bank (pools missing entries only the newest concretizations can
	// distinguish) is only discovered by exhausting every tier, and the
	// tiers beyond where a fresh search would stop grow exponentially, so
	// a resumed search that has not won within a few tiers of the cursor
	// gives up early and lets the restart fallback take over.
	resumeSize int
	resumeSkip int64
	resumeCap  int

	// Winner cursor, recorded for the bank when the search succeeds:
	// the winner was candidate curIdx (1-based, tier-local) of tier
	// curSize, and it is entry win.
	curSize int
	curIdx  int64
	win     ref

	// exhausted marks a run that walked every tier up to MaxSize without
	// finding the goal or hitting a budget — the only failure mode the
	// bank-resume path may transparently retry as a fresh search.
	exhausted bool
}

// newEnumerator builds an enumerator without pools; initFresh or
// resumeEnumerator installs them. Shadow tracking rides on the signature
// table and only pays off when a later round can consult the shadows, so
// it needs track (a bank will be built, so pruning and bank reuse are on)
// and at least one example: a zero-example round has a degenerate
// partition (one class per type) whose bank is never resumed. The probe valuations deliberately do NOT
// join the main signature: the candidate stream, pruning, and goal test
// stay example-keyed, so answers are identical to the unreduced search by
// construction.
func newEnumerator(ctx context.Context, sc *schema, p Problem, examples []ConcreteExample, limits Limits,
	deadline time.Time, track bool) *enumerator {
	en := &enumerator{ctx: ctx, p: p, examples: examples, limits: limits,
		deadline: deadline, start: time.Now(), ops: sc.ops, outStore: sc.out, stores: sc.newStores()}
	if track && len(examples) > 0 {
		en.shadowProbes = interpProbes(p)
		en.nProbe = len(en.shadowProbes)
	}
	en.nSig = len(examples)
	out := &en.stores[en.outStore]
	en.goal = make([]byte, out.w*len(examples))
	for k, c := range examples {
		out.put(en.goal[k*out.w:], c.Out)
	}
	return en
}

// goalHit reports whether a candidate of store s whose key is key matches
// the goal: right output type and example coordinates equal to the
// example outputs. Probe coordinates deliberately do not participate — the
// goal constrains only the examples — which is what keeps the finer
// probe-keyed partition answer-identical to the example-only one (the
// first key-suffix match in enumeration order is the same expression
// either way; DESIGN.md §15).
func (en *enumerator) goalHit(s int, key []byte) bool {
	return !en.noGoal && s == en.outStore && bytes.Equal(key, en.goal)
}

// initFresh sizes empty stores and pools for a from-scratch search
// (resumeEnumerator adopts banked ones instead).
func (en *enumerator) initFresh() {
	for i := range en.stores {
		st := &en.stores[i]
		st.stride = st.w * (en.nProbe + en.nSig)
	}
	en.pools = make([][][]uint32, en.limits.MaxSize+1)
	for i := range en.pools {
		en.pools[i] = make([][]uint32, len(en.stores))
	}
	en.initScratch()
}

// initScratch sizes the hot path's buffers for the current strides.
func (en *enumerator) initScratch() {
	stride, arity := 0, 0
	for i := range en.stores {
		stride = max(stride, en.stores[i].stride)
	}
	for i := range en.ops {
		arity = max(arity, len(en.ops[i].params))
	}
	en.rowBuf = make([]byte, stride)
	en.kidRows = make([][]byte, arity)
	en.argBuf = make([]expr.Value, arity)
	en.kidBuf = make([]uint32, arity)
	en.posBuf = make([]int, arity)
	en.shareBuf = make([]int, arity)
}

func (en *enumerator) run() (expr.Expr, error) {
	// A resumed round extends its pools and probes its shadows before
	// the walk, and the walk's first poll is 4096 candidates in, so the
	// deadline is polled here too.
	if err := en.pastDeadline(); err != nil {
		return nil, err
	}
	startSize := 1
	maxSize := en.limits.MaxSize
	if en.resumeSize > 0 {
		startSize = en.resumeSize
		if en.resumeCap > 0 && en.resumeCap < maxSize {
			maxSize = en.resumeCap
		}
	}
	for size := startSize; size <= maxSize; size++ {
		en.stats.MaxSizeSeen = size
		var skip int64
		if size == en.resumeSize {
			skip = en.resumeSkip
		}
		found, err := en.runSize(size, skip)
		if err != nil {
			return nil, err
		}
		if found {
			en.stats.Elapsed = time.Since(en.start)
			return en.materialize(en.win.s, en.win.r), nil
		}
	}
	en.exhausted = true
	en.stats.Elapsed = time.Since(en.start)
	return nil, fmt.Errorf("%w (size <= %d, %d candidates)", ErrSizeBound, maxSize, en.stats.Enumerated)
}

// runSize enumerates one size tier under its own "synth.size" span, so a
// trace shows where enumeration time concentrates as tiers grow and how
// many classes each tier kept. skip is the number of leading tier-local
// candidates already consumed by the round that built the bank being
// resumed (0 on fresh tiers).
func (en *enumerator) runSize(size int, skip int64) (found bool, err error) {
	en.trackTier = en.nProbe > 0 && size <= shadowTrackMaxSize
	before, keptBefore := en.stats.Enumerated, en.stats.Kept
	tierStart := time.Now()
	_, span := obs.Start(en.ctx, "synth.size", obs.Int("size", size))
	if span != nil {
		// Live "now enumerating tier k" gauge; the closing span carries
		// the totals, this mark makes the current tier visible mid-tier.
		span.Mark("synth.tier", obs.Int("size", size),
			obs.Int64("skip", skip), obs.Int64("enumerated", before))
	}
	defer func() {
		span.SetAttr(obs.Int64("enumerated", en.stats.Enumerated-before),
			obs.Int64("kept", en.stats.Kept-keptBefore),
			obs.Bool("found", found))
		span.End()
		if reg := obs.MetricsFrom(en.ctx); reg != nil {
			reg.Histogram("synth.tier_ms").Observe(time.Since(tierStart))
		}
	}()
	if size == 1 {
		return en.runAtoms(skip)
	}
	return en.runTier(size, en.buildUnits(size), skip)
}

// runAtoms enumerates the size-1 tier: variables in declaration order,
// then arity-0 function symbols in vocabulary order.
func (en *enumerator) runAtoms(skip int64) (bool, error) {
	idx := int64(0)
	for o := range en.ops {
		if en.ops[o].atom == nil {
			continue
		}
		idx++
		if idx <= skip {
			continue
		}
		found, err := en.considerAtom(uint16(o))
		if err != nil || found {
			en.curSize, en.curIdx = 1, idx
			return found, err
		}
	}
	return false, nil
}

// runTier processes a tier's units in canonical order through the
// charge/prune/retain path.
func (en *enumerator) runTier(size int, units []tierUnit, skip int64) (bool, error) {
	for ui := range units {
		u := &units[ui]
		if u.base+u.count <= skip {
			continue
		}
		found, idx, err := en.runUnit(u, size, skip)
		if err != nil {
			return false, err
		}
		if found {
			en.curSize, en.curIdx = size, idx
			return true, nil
		}
	}
	return false, nil
}

// runUnit enumerates one unit's candidates, fast-forwarding past the
// resumed prefix by index arithmetic instead of iteration. The odometer
// turns its last child fastest, so considerApply reuses the rows of the
// leading children that did not move.
func (en *enumerator) runUnit(u *tierUnit, size int, skip int64) (bool, int64, error) {
	m := len(u.pools)
	kids, pos := en.kidBuf[:m], en.posBuf[:m]
	off := int64(0)
	if skip > u.base {
		off = skip - u.base
	}
	u.decode(off, pos)
	moved := 0
	for {
		for j := moved; j < m; j++ {
			kids[j] = u.pools[j][pos[j]]
		}
		found, err := en.considerApply(u.op, kids, moved, size)
		if err != nil {
			return false, 0, err
		}
		if found {
			return true, u.base + off + 1, nil
		}
		off++
		if off == u.count {
			return false, 0, nil
		}
		moved = u.advance(pos)
	}
}

// considerApply composes the candidate o(kids)'s key from its children's
// rows (compose, kernel.go) and settles it. Children before moved are the
// previous call's, whose rows are still in kidRows. The hot path allocates
// nothing until a candidate survives pruning, and a survivor only grows
// the store's columns and arena: the row and the children's rows live in
// reusable buffers, and the index compares keys in place.
func (en *enumerator) considerApply(o uint16, kids []uint32, moved, size int) (bool, error) {
	if err := en.charge(); err != nil {
		return false, err
	}
	a := &en.ops[o]
	m := len(kids)
	for j := moved; j < m; j++ {
		en.kidRows[j] = en.stores[a.params[j]].row(kids[j])
	}
	row := en.rowBuf[:en.stores[a.ret].stride]
	en.compose(a, row, en.kidRows[:m], en.nProbe, en.nProbe+en.nSig)
	return en.settle(o, kids, row, size)
}

// considerAtom handles size-1 candidates, which are evaluated directly.
func (en *enumerator) considerAtom(o uint16) (bool, error) {
	if err := en.charge(); err != nil {
		return false, err
	}
	a := &en.ops[o]
	st := &en.stores[a.ret]
	row := en.rowBuf[:st.stride]
	for k, ex := range en.examples {
		st.put(row[(en.nProbe+k)*st.w:], a.atom.Eval(en.p.U, ex.S))
	}
	return en.settle(o, nil, row, 1)
}

// fillProbes writes the candidate's shadow-probe coordinates into the head
// of its row: evaluated directly for an atom, composed from the children's
// rows (in kidRows) otherwise, exactly like the key.
func (en *enumerator) fillProbes(o uint16, row []byte) {
	a := &en.ops[o]
	if a.atom != nil {
		st := &en.stores[a.ret]
		for c, env := range en.shadowProbes {
			st.put(row[c*st.w:], a.atom.Eval(en.p.U, env))
		}
		return
	}
	en.compose(a, row, en.kidRows[:len(a.params)], 0, en.nProbe)
}

// settle prunes, shadows or retains the candidate o(kids), whose key is in
// row, and reports whether it hits the goal. A retained candidate is its
// class's first member, so it joins the seen index (and, in a tracked
// tier, the full index with its probe coordinates). A duplicate in a
// tracked tier whose whole row is new is stored as a shadow of its class;
// one whose row is covered counts as interpretation-pruned. Winners are
// pooled too: the bank needs the winner entry in place so a resumed round
// re-encounters it as an ordinary retained expression.
func (en *enumerator) settle(o uint16, kids []uint32, row []byte, size int) (bool, error) {
	s := en.ops[o].ret
	st := &en.stores[s]
	from := en.nProbe * st.w
	key := row[from:]
	var h uint32
	if !en.limits.NoPrune {
		h = hashBytes(key)
		if _, dup := st.find(&st.seen, h, from, key); dup {
			if en.trackTier {
				en.fillProbes(o, row)
				fh := hashBytes(row)
				if _, covered := st.find(&st.full, fh, 0, row); covered {
					en.stats.InterpPruned++
				} else if len(en.shadows) < maxShadows {
					r := st.add(o, kids, row)
					st.full.Add(fh, r)
					en.shadows = append(en.shadows, ref{s, r})
				}
			}
			return false, nil
		}
	}
	en.stats.Kept++
	if en.trackTier {
		en.fillProbes(o, row)
	}
	r := st.add(o, kids, row)
	if !en.limits.NoPrune {
		st.seen.Add(h, r)
		if en.trackTier {
			st.full.Add(hashBytes(row), r)
		}
	}
	en.pools[size][s] = append(en.pools[size][s], r)
	if en.goalHit(s, key) {
		en.win = ref{s, r}
		en.stats.Elapsed = time.Since(en.start)
		return true, nil
	}
	return false, nil
}

// charge accounts one candidate against the budgets and polls the
// cancellation context and the deadline. The budget check precedes the
// increment so that a budget of N admits exactly N candidates (candidate
// N itself may still win).
func (en *enumerator) charge() error {
	if en.stats.Enumerated >= en.limits.MaxExprs {
		en.stats.Elapsed = time.Since(en.start)
		return fmt.Errorf("%w (%d candidates)", ErrExprBudget, en.limits.MaxExprs)
	}
	en.stats.Enumerated++
	if en.stats.Enumerated%4096 == 0 {
		if err := en.ctx.Err(); err != nil {
			en.stats.Elapsed = time.Since(en.start)
			return fmt.Errorf("synth: enumeration aborted: %w", err)
		}
		return en.pastDeadline()
	}
	return nil
}

// pastDeadline polls the call's deadline and, once it has passed, stops
// the enumerator with ErrTimeout.
func (en *enumerator) pastDeadline() error {
	if !expired(en.deadline) {
		return nil
	}
	en.stats.Elapsed = time.Since(en.start)
	return fmt.Errorf("%w (%v)", ErrTimeout, en.limits.Timeout)
}
