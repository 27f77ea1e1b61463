package synth

import (
	"context"
	"fmt"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
)

// SolveConcrete implements Algorithm 1: enumerate expressions of increasing
// size over the vocabulary, pruning candidates whose signature (vector of
// evaluations over the concrete examples) has been seen before, until one
// matches the goal signature (the vector of example outputs).
//
// With an empty example set, every expression is indistinguishable from
// every other of its type, so the first enumerated expression of the output
// type is returned — exactly the seeding behaviour Algorithm 2 relies on.
func SolveConcrete(p Problem, examples []ConcreteExample, limits Limits) (expr.Expr, ConcreteStats, error) {
	return SolveConcreteCtx(context.Background(), p, examples, limits)
}

// SolveConcreteCtx is SolveConcrete under a context: the enumeration loop
// polls the context and aborts with its error once it is cancelled or its
// deadline passes. The search runs under a "synth.enumerate" span with one
// "synth.size" child per size tier entered.
func SolveConcreteCtx(ctx context.Context, p Problem, examples []ConcreteExample, limits Limits) (expr.Expr, ConcreteStats, error) {
	e, stats, _, _, err := solveConcrete(ctx, p, examples, limits, nil, false)
	return e, stats, err
}

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
// reuse.
func solveConcrete(ctx context.Context, p Problem, examples []ConcreteExample, limits Limits,
	bk *bank, wantBank bool) (expr.Expr, ConcreteStats, *bank, bool, error) {
	limits = limits.withDefaults()
	if err := p.validate(); err != nil {
		return nil, ConcreteStats{}, nil, false, err
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
		en = resumeEnumerator(ctx, p, examples, limits, bk)
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
		en = newEnumerator(ctx, p, examples, limits)
		if !wantBank {
			en.disableShadows()
		}
		en.initFresh()
	} else {
		en.ctx = ctx
	}
	res, err := en.run()
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
		en = newEnumerator(ctx, p, examples, limits)
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

// interpReduced reports whether interpretation-indexed pruning is active:
// it layers on the signature table, so NoPrune disables it along with the
// table itself.
func interpReduced(l Limits) bool { return !l.NoPrune && !l.NoInterpReduction }

// interpProbes builds the deterministic probe interpretations the shadow
// store indexes full signatures by (and the unrealizability atlas seeds
// its class enumeration with). The set is fixed by the problem alone —
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

// entry pairs a retained expression with its signature so that parent
// signatures compose from child signatures without re-walking trees, and
// with its signature key so a resumed round extends the key in place — one
// evaluation and one fixed-width append per new concretization — instead
// of re-encoding it (key is nil under NoPrune, where no bank is built).
// psig holds the entry's probe coordinates when shadow tracking is active
// (nil otherwise): parents' probe signatures compose pointwise from child
// psigs exactly like sig.
type entry struct {
	e    expr.Expr
	sig  []expr.Value
	key  []byte
	psig []expr.Value
}

// staleAlt is a split shadow: a candidate that an earlier round pruned as
// example-indistinguishable from a retained representative and that a
// later concretization separated from every pooled class. The pools can
// never recover the split retroactively — every composition over the
// candidate is unreachable from them — so a live split means the resumed
// walk may be searching a partition the fresh search would not build.
// resumeEnumerator probes the splits before the walk starts
// (shallowAltDoom): a split that already wins at or below the resume
// cursor skips the resumed walk outright, and a deeper potential winner
// caps the walk at its size so the exhaustion fallback fires before the
// resumed search overshoots into exponentially larger tiers
// (DESIGN.md §15).
//
// sig holds the alt's example-coordinate values, extended each round like
// pool signatures.
type staleAlt struct {
	e   expr.Expr
	sig []expr.Value
}

// maxAlts bounds the alts carried per bank. Beyond it, further splits go
// undetected by the adopt-time probe and fall to the exhaustion-restart
// fallback — slower, never wrong.
const maxAlts = 96

// shadowEntry is a pruned-but-probe-distinct candidate retained on the
// side: an expression (of any type, within shadowTrackMaxSize) whose
// example signature duplicated an earlier candidate's but whose full
// (probe + example) interpretation signature was new. Shadows never enter
// the candidate stream — pools, pruning, and the goal test stay exactly
// example-keyed, which is what keeps every answer identical to the
// unreduced search.
// Their job is staleness detection: a resumed round extends each shadow's
// key with the new concretizations, and a shadow whose extended example
// coordinates escape every pooled class proves the bank's partition went
// stale, letting the round restart fresh immediately instead of walking
// the doomed resumed tiers first (DESIGN.md §15).
//
// key is the example signature key (same layout as pool keys), so
// extension is one evaluation and one fixed-width append per new
// concretization, like pool entries; psig holds the probe coordinates
// that distinguished the shadow within its example class.
type shadowEntry struct {
	e    expr.Expr
	key  []byte
	psig []expr.Value
}

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
	start    time.Time
	stats    ConcreteStats

	// perSize[s][t] holds retained entries of size s and type t, in
	// canonical enumeration order. sigSeen is the pruning table: one key
	// per signature class seen. Under shadow tracking the value holds the
	// class's probe coordinate chunks (the retained representative's and
	// every stored shadow's, len(shadowProbes) values per chunk), so the
	// duplicate path answers "example dup" and "full-signature dup" with a
	// single map access; without tracking the values stay nil.
	perSize []map[expr.Type][]entry
	sigSeen map[string][]expr.Value

	// probes are extra valuations folded into the main signature;
	// vectors are laid out [probe evaluations..., example evaluations...],
	// so the goal test is a fixed-offset suffix comparison (goalSuffix at
	// byte offset goalOff of the key). Normal solves leave probes empty —
	// the stream partition must stay example-keyed for answer identity —
	// and only the unrealizability atlas installs a probe set (with
	// noGoal, which suppresses the goal test: the atlas enumerates
	// classes, it does not search for a winner).
	probes     []expr.Env
	nSig       int
	goalSuffix string
	goalOff    int
	noGoal     bool

	// Shadow-class state (interpretation reduction, DESIGN.md §15). The
	// shadowProbes valuations refine the example partition on the side:
	// each example class's probe coordinate chunks live in sigSeen's
	// values — the full (probe + example) signature set, without ever
	// materializing full keys. shadows holds the probe-distinct duplicates
	// themselves. probeBuf is reusable scratch, keeping the duplicate path
	// allocation-free, and doubles as the "tracking active" flag. All
	// nil/unused when reduction is off or no bank will consume them.
	shadowProbes []expr.Env
	shadows      []shadowEntry
	probeBuf     []expr.Value
	// trackTier is set per size tier: shadow tracking is active and the
	// tier is within shadowTrackMaxSize.
	trackTier bool

	// Split shadows carried by the bank, set only on resumed rounds with
	// live splits; consumed by the adopt-time shallowAltDoom probe.
	alts []*staleAlt

	sigBuf []expr.Value
	keyBuf []byte
	argBuf []expr.Value

	// Scratch buffers hoisted out of the per-tier loops so the hot path
	// allocates only for candidates that survive pruning.
	shareBuf []int
	argsBuf  []entry
	posBuf   []int

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
	// curSize.
	curSize int
	curIdx  int64

	// exhausted marks a run that walked every tier up to MaxSize without
	// finding the goal or hitting a budget — the only failure mode the
	// bank-resume path may transparently retry as a fresh search.
	exhausted bool
}

func newEnumerator(ctx context.Context, p Problem, examples []ConcreteExample, limits Limits) *enumerator {
	en := &enumerator{ctx: ctx, p: p, examples: examples, limits: limits, start: time.Now()}
	// Shadow tracking rides on the signature table and only pays off when
	// a later round can consult the shadows, i.e. when a bank will be
	// built. A zero-example round has a degenerate partition (one class
	// per type) whose bank is never resumed, so it skips tracking too.
	// The probe valuations deliberately do NOT join the main signature:
	// the candidate stream, pruning, and goal test stay example-keyed, so
	// answers are identical to the unreduced search by construction.
	if interpReduced(limits) && !limits.NoBankReuse && len(examples) > 0 {
		en.shadowProbes = interpProbes(p)
		if len(en.shadowProbes) > 0 {
			en.probeBuf = make([]expr.Value, len(en.shadowProbes))
		}
	}
	en.initSigLayout()
	return en
}

// disableShadows turns shadow tracking off after construction; callers
// that will not build a bank (plain SolveConcrete) use it to keep the hot
// path free of probe evaluations.
func (en *enumerator) disableShadows() {
	en.shadowProbes, en.probeBuf, en.shadows = nil, nil, nil
}

// initSigLayout derives the signature layout from the installed probe and
// example sets: buffer sizes, the goal suffix (the encoded example
// outputs), and its fixed byte offset within a key. Split out of
// newEnumerator so the unrealizability atlas can install a custom probe
// set and re-derive.
func (en *enumerator) initSigLayout() {
	en.nSig = len(en.probes) + len(en.examples)
	en.sigBuf = make([]expr.Value, en.nSig)
	var suffix []byte
	for _, c := range en.examples {
		suffix = c.Out.AppendEncoding(suffix)
	}
	en.goalSuffix = string(suffix)
	en.goalOff = sigKeyHeaderLen + sigValEncLen*len(en.probes)
}

// goalHit reports whether a candidate of type t whose signature key is key
// matches the goal: right output type and example coordinates equal to the
// example outputs. Probe coordinates deliberately do not participate — the
// goal constrains only the examples — which is what keeps the finer
// probe-keyed partition answer-identical to the example-only one (the
// first key-suffix match in enumeration order is the same expression
// either way; DESIGN.md §15).
func (en *enumerator) goalHit(t expr.Type, key []byte) bool {
	return !en.noGoal && t == en.p.Output.VT && string(key[en.goalOff:]) == en.goalSuffix
}

// initFresh allocates empty pools and signature table for a from-scratch
// search (resumeEnumerator installs banked ones instead).
func (en *enumerator) initFresh() {
	en.sigSeen = make(map[string][]expr.Value)
	en.perSize = make([]map[expr.Type][]entry, en.limits.MaxSize+1)
	for i := range en.perSize {
		en.perSize[i] = make(map[expr.Type][]entry)
	}
}

// errStop distinguishes budget exhaustion from normal exhaustion.
type errStop struct{ reason string }

func (e errStop) Error() string { return e.reason }

func (en *enumerator) run() (expr.Expr, error) {
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
			return nil, budgetErr(err)
		}
		if found != nil {
			en.stats.Elapsed = time.Since(en.start)
			return found, nil
		}
	}
	en.exhausted = true
	en.stats.Elapsed = time.Since(en.start)
	return nil, fmt.Errorf("%w (size <= %d, %d candidates)", ErrNoExpression, maxSize, en.stats.Enumerated)
}

// runSize enumerates one size tier under its own "synth.size" span, so a
// trace shows where enumeration time concentrates as tiers grow. skip is
// the number of leading tier-local candidates already consumed by the
// round that built the bank being resumed (0 on fresh tiers).
func (en *enumerator) runSize(size int, skip int64) (found expr.Expr, err error) {
	en.trackTier = en.probeBuf != nil && size <= shadowTrackMaxSize
	before := en.stats.Enumerated
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
			obs.Bool("found", found != nil))
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
func (en *enumerator) runAtoms(skip int64) (expr.Expr, error) {
	idx := int64(0)
	atom := func(e expr.Expr) (expr.Expr, error) {
		idx++
		if idx <= skip {
			return nil, nil
		}
		return en.consider(e)
	}
	for _, v := range en.p.Vars {
		found, err := atom(v)
		if err != nil || found != nil {
			en.curSize, en.curIdx = 1, idx
			return found, err
		}
	}
	for _, f := range en.p.Vocab.Funcs() {
		if f.Arity() != 0 {
			continue
		}
		found, err := atom(expr.NewApply(f))
		if err != nil || found != nil {
			en.curSize, en.curIdx = 1, idx
			return found, err
		}
	}
	return nil, nil
}

// runTier processes a tier's units in canonical order through the
// charge/prune/retain path.
func (en *enumerator) runTier(size int, units []tierUnit, skip int64) (expr.Expr, error) {
	for ui := range units {
		u := &units[ui]
		if u.base+u.count <= skip {
			continue
		}
		found, idx, err := en.runUnit(u, skip)
		if err != nil {
			return nil, err
		}
		if found != nil {
			en.curSize, en.curIdx = size, idx
			return found, nil
		}
	}
	return nil, nil
}

// runUnit enumerates one unit's candidates, fast-forwarding past the
// resumed prefix by index arithmetic instead of iteration.
func (en *enumerator) runUnit(u *tierUnit, skip int64) (expr.Expr, int64, error) {
	m := len(u.pools)
	if cap(en.argsBuf) < m {
		en.argsBuf = make([]entry, m)
	}
	if cap(en.posBuf) < m {
		en.posBuf = make([]int, m)
	}
	args, pos := en.argsBuf[:m], en.posBuf[:m]
	off := int64(0)
	if skip > u.base {
		off = skip - u.base
	}
	u.decode(off, pos)
	for {
		for j := 0; j < m; j++ {
			args[j] = u.pools[j][pos[j]]
		}
		found, err := en.considerApply(u.f, args)
		if err != nil {
			return nil, 0, err
		}
		if found != nil {
			return found, u.base + off + 1, nil
		}
		off++
		if off == u.count {
			return nil, 0, nil
		}
		u.advance(pos)
	}
}

func budgetErr(err error) error {
	if s, ok := err.(errStop); ok {
		return fmt.Errorf("%w (%s)", ErrNoExpression, s.reason)
	}
	return err
}

// considerApply evaluates the candidate's signature from child signatures,
// prunes, and on survival materializes the expression node. The hot path
// is allocation-free until a candidate survives pruning: the signature and
// key live in reusable buffers, and map lookups use the compiler's
// alloc-free string([]byte) comparison.
func (en *enumerator) considerApply(f *expr.Func, args []entry) (expr.Expr, error) {
	if err := en.charge(); err != nil {
		return nil, err
	}
	if cap(en.argBuf) < len(args) {
		en.argBuf = make([]expr.Value, len(args))
	}
	argv := en.argBuf[:len(args)]
	// Probe coordinates compose pointwise exactly like example
	// coordinates: a child's value at a probe valuation is its sig entry,
	// and evaluation is compositional.
	for k := 0; k < en.nSig; k++ {
		for j := range args {
			argv[j] = args[j].sig[k]
		}
		en.sigBuf[k] = f.Apply(en.p.U, argv)
	}
	en.keyBuf = appendSigKey(en.keyBuf[:0], f.Ret, en.sigBuf)
	if !en.limits.NoPrune {
		if rows, seen := en.sigSeen[string(en.keyBuf)]; seen {
			if en.trackTier {
				en.fillProbesApply(f, args)
				if psigsContain(rows, en.probeBuf) {
					en.stats.InterpPruned++
				} else if len(en.shadows) < maxShadows {
					childExprs := make([]expr.Expr, len(args))
					for j, a := range args {
						childExprs[j] = a.e
					}
					en.addShadow(expr.NewApply(f, childExprs...))
				}
			}
			return nil, nil
		}
	}
	if en.trackTier {
		en.fillProbesApply(f, args)
	}
	childExprs := make([]expr.Expr, len(args))
	size := 1
	for j, a := range args {
		childExprs[j] = a.e
		size += a.e.Size()
	}
	node := expr.NewApply(f, childExprs...)
	return en.retain(node, size)
}

// fillProbesApply composes the candidate's probe coordinates pointwise
// from its children's psigs into probeBuf (alloc-free; argBuf is free
// again once the main signature loop is done).
func (en *enumerator) fillProbesApply(f *expr.Func, args []entry) {
	argv := en.argBuf[:len(args)]
	for k := range en.shadowProbes {
		for j := range args {
			argv[j] = args[j].psig[k]
		}
		en.probeBuf[k] = f.Apply(en.p.U, argv)
	}
}

// fillProbesEval evaluates a size-1 candidate's probe coordinates
// directly.
func (en *enumerator) fillProbesEval(e expr.Expr) {
	for k, env := range en.shadowProbes {
		en.probeBuf[k] = e.Eval(en.p.U, env)
	}
}

// psigsContain reports whether rows — a flat sequence of len(ps)-stride
// probe-value chunks — contains a chunk equal to ps. Within one universe,
// Value equality coincides with encoding equality (Value is comparable,
// constructors zero unused payload fields, and equal enum types share one
// *EnumType), so a chunk match under a shared example key is exactly a
// full-signature match — without building a key or encoding a value.
func psigsContain(rows, ps []expr.Value) bool {
	np := len(ps)
	for i := 0; i < len(rows); i += np {
		match := true
		for j := 0; j < np; j++ {
			if rows[i+j] != ps[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// addShadow stores the candidate (example key in keyBuf, probe chunk in
// probeBuf) as a shadow of its example class: the chunk joins the class's
// rows in sigSeen and the shadow itself is retained on the side. The
// caller has checked coverage and the cap. Like retained keys, the stored
// key carries extension headroom: adoptShadows appends one record per new
// concretization each round.
func (en *enumerator) addShadow(e expr.Expr) {
	key := make([]byte, len(en.keyBuf), len(en.keyBuf)+sigValEncLen*sigHeadroom)
	copy(key, en.keyBuf)
	psig := append([]expr.Value(nil), en.probeBuf...)
	en.sigSeen[string(key)] = append(en.sigSeen[string(key)], psig...)
	en.shadows = append(en.shadows, shadowEntry{e: e, key: key, psig: psig})
}

// consider handles size-1 candidates, which must be evaluated directly.
func (en *enumerator) consider(e expr.Expr) (expr.Expr, error) {
	if err := en.charge(); err != nil {
		return nil, err
	}
	for k, env := range en.probes {
		en.sigBuf[k] = e.Eval(en.p.U, env)
	}
	np := len(en.probes)
	for k, c := range en.examples {
		en.sigBuf[np+k] = e.Eval(en.p.U, c.S)
	}
	en.keyBuf = appendSigKey(en.keyBuf[:0], e.Type(), en.sigBuf)
	if !en.limits.NoPrune {
		if rows, seen := en.sigSeen[string(en.keyBuf)]; seen {
			if en.trackTier {
				en.fillProbesEval(e)
				if psigsContain(rows, en.probeBuf) {
					en.stats.InterpPruned++
				} else if len(en.shadows) < maxShadows {
					en.addShadow(e)
				}
			}
			return nil, nil
		}
	}
	if en.trackTier {
		en.fillProbesEval(e)
	}
	return en.retain(e, e.Size())
}

// retain stores a surviving candidate (whose key is in keyBuf) and reports
// it if it hits the goal. Winners are pooled too: the bank needs the
// winner entry in place so a resumed round re-encounters it as an
// ordinary retained expression.
func (en *enumerator) retain(e expr.Expr, size int) (expr.Expr, error) {
	en.stats.Kept++
	if size < len(en.perSize) {
		// Signature and key copies carry capacity headroom for a few future
		// concretizations: the bank extends both in place on every resumed
		// round, and exact-size allocations would force a reallocation of
		// every entry every round.
		sig := make([]expr.Value, len(en.sigBuf), len(en.sigBuf)+sigHeadroom)
		copy(sig, en.sigBuf)
		var key []byte
		var psig []expr.Value
		if !en.limits.NoPrune {
			key = make([]byte, len(en.keyBuf), len(en.keyBuf)+sigValEncLen*sigHeadroom)
			copy(key, en.keyBuf)
			if en.trackTier {
				// The caller filled probeBuf; record the coordinates so
				// parents compose from them, and seed the class's probe
				// rows so duplicates of it are recognized.
				psig = append([]expr.Value(nil), en.probeBuf...)
			}
			// A surviving candidate is its class's first member, so the
			// assignment both marks the class seen and installs its first
			// probe chunk (nil without tracking).
			en.sigSeen[string(key)] = psig
		}
		en.perSize[size][e.Type()] = append(en.perSize[size][e.Type()], entry{e: e, sig: sig, key: key, psig: psig})
	}
	if en.goalHit(e.Type(), en.keyBuf) {
		en.stats.Elapsed = time.Since(en.start)
		return e, nil
	}
	return nil, nil
}

// charge accounts one candidate against the budgets and polls the
// cancellation context. The budget check precedes the increment so that a
// budget of N admits exactly N candidates (candidate N itself may still
// win).
func (en *enumerator) charge() error {
	if en.stats.Enumerated >= en.limits.MaxExprs {
		en.stats.Elapsed = time.Since(en.start)
		return errStop{reason: fmt.Sprintf("expression budget %d exhausted", en.limits.MaxExprs)}
	}
	en.stats.Enumerated++
	if en.stats.Enumerated%4096 == 0 {
		if err := en.ctx.Err(); err != nil {
			en.stats.Elapsed = time.Since(en.start)
			return fmt.Errorf("synth: enumeration aborted: %w", err)
		}
		if en.limits.Timeout > 0 && time.Since(en.start) > en.limits.Timeout {
			en.stats.Elapsed = time.Since(en.start)
			return errStop{reason: "timeout"}
		}
	}
	return nil
}

// Signature-key layout constants: a key is a sigKeyHeaderLen-byte type
// header (kind tag, enum ID or 0) followed by one fixed sigValEncLen-byte
// record per signature value (expr.Value.AppendEncoding). The fixed widths
// are what make the goal test a constant-offset suffix comparison and the
// bank's key extension a plain append; TestSigKeyLayout pins them against
// the encoder.
const (
	sigKeyHeaderLen = 2
	sigValEncLen    = 10
)

// sigHeadroom is the number of future concretizations retained signatures
// and keys reserve capacity for, letting the bank's per-round in-place
// extension append without reallocating every entry (CEGIS adds one
// example per round, so this covers the next few rounds per allocation).
const sigHeadroom = 4

// appendSigKey appends the map key for a signature: the expression type
// tag followed by the fixed-width encodings of the probe and example
// values. The encoding is injective over (type, value-vector) pairs — see
// FuzzSigKeyInjective — which pruning relies on: a silent collision would
// fuse two distinguishable candidate classes.
func appendSigKey(dst []byte, t expr.Type, sig []expr.Value) []byte {
	dst = append(dst, byte(t.Kind))
	if t.Kind == expr.KindEnum {
		dst = append(dst, byte(t.Enum.ID()))
	} else {
		dst = append(dst, 0)
	}
	for _, v := range sig {
		dst = v.AppendEncoding(dst)
	}
	return dst
}
