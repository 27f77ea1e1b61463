// Package core is the TRANSIT synthesis tool (§5 of the paper): it
// completes an EFSM protocol skeleton from concolic snippets. Update
// expressions for each primed variable are inferred directly with
// SolveConcolic (§5.1); guards for each (control state, input event) group
// are inferred under the §5.2 mutual-exclusion side conditions; the
// completed transitions are installed into the efsm.System, ready for the
// model checker. The iterative specify → synthesize → model-check →
// fix-with-snippets workflow of the case studies is driven by
// RunCaseStudyCtx.
//
// Completion is executed by internal/engine as a list of job chains:
// each (state, event) group is one chain, its guards in order (later
// guards are constrained by earlier ones) and then its mutual-exclusion
// check, and every update-expression job is a chain of its own. Chains
// run in parallel on a bounded worker pool, with cross-job memoization
// and cooperative cancellation. With Options.Workers <= 1 the jobs
// execute in exactly the historical sequential order, so single-worker
// output is byte-identical to the pre-engine implementation.
package core

import (
	"context"
	"fmt"
	"time"

	"transit/internal/efsm"
	"transit/internal/engine"
	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/obs/provenance"
	"transit/internal/smt"
	"transit/internal/synth"
)

// Options configures protocol completion.
type Options struct {
	// Limits bounds each expression-inference call.
	Limits synth.Limits
	// Workers sizes the inference worker pool. Values <= 1 execute jobs
	// strictly in plan order, reproducing the sequential implementation
	// byte for byte; larger values run independent jobs concurrently
	// (the inferred expressions are identical at every worker count).
	Workers int
	// DisableCache turns off cross-job memoization. Memoization never
	// changes results (identical sub-problems have identical answers and
	// their original work stats are replayed into the Report), it only
	// skips redundant solving.
	DisableCache bool
	// Cache, when non-nil, is consulted and populated instead of a fresh
	// per-run cache — share one across CEGIS iterations or across
	// protocols to exploit repeated sub-problems.
	Cache *engine.Cache
}

// Report summarizes one completion run; its counters feed Table 4.
type Report struct {
	// Snippets is the number of snippets consumed (the paper's
	// "scenarios").
	Snippets int
	// UpdatesSynthesized counts inferred update and message-field
	// expressions; GuardsSynthesized counts inferred guards.
	UpdatesSynthesized int
	GuardsSynthesized  int
	// UpdateExprsTried / GuardExprsTried are the enumeration workloads.
	UpdateExprsTried int64
	GuardExprsTried  int64
	// SMTQueries counts consistency and concretization queries.
	SMTQueries int
	UpdateTime time.Duration
	GuardTime  time.Duration
	Elapsed    time.Duration
	// Transitions is the number of completed transitions installed.
	Transitions int
	// Workers is the pool size the run used; Jobs the number of engine
	// jobs planned.
	Workers int
	Jobs    int
	// CacheHits / CacheMisses count memoization lookups by inference
	// jobs during this run.
	CacheHits   int
	CacheMisses int
	// Utilization is busy-time / (wall-time × workers) for the engine
	// phase of the run.
	Utilization float64
}

// guardVar is the fresh output variable name used for guard inference; the
// '$' keeps it out of any user scope.
const guardVar = "guard$"

// CompleteCtx synthesizes full transitions for every process of the
// system from the given snippets and installs them. Existing transitions
// on the definitions are replaced. The vocabulary is the search space for
// inferred guards and updates (snippet expressions themselves may use
// constants outside it). Cancellation or deadline expiry stops in-flight
// inference jobs and fails the run with the context's error.
func CompleteCtx(ctx context.Context, sys *efsm.System, vocab *expr.Vocabulary, snippets []*efsm.Snippet, opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Snippets: len(snippets)}
	defByName := map[string]*efsm.ProcDef{}
	for _, d := range sys.Defs {
		defByName[d.Name] = d
		d.Transitions = nil
	}
	perDef := map[string][]*efsm.Snippet{}
	var defOrder []string
	for _, sn := range snippets {
		d, ok := defByName[sn.Process]
		if !ok {
			return rep, fmt.Errorf("core: snippet %q names unknown process %s", sn.Label, sn.Process)
		}
		if err := sn.Validate(sys, d); err != nil {
			return rep, err
		}
		if _, seen := perDef[sn.Process]; !seen {
			defOrder = append(defOrder, sn.Process)
		}
		perDef[sn.Process] = append(perDef[sn.Process], sn)
	}

	cache := opts.Cache
	if cache == nil && !opts.DisableCache {
		cache = engine.NewCache()
	}
	p := &planner{sys: sys, vocab: vocab, opts: opts, cache: cache}
	for _, name := range defOrder {
		p.planDef(defByName[name], perDef[name])
	}

	stats, err := engine.Run(ctx, opts.Workers, p.chains)
	aggregate(rep, p, stats)
	// The ledger is assembled the same way the Report is — in plan order,
	// single-threaded, on both the success and failure paths — so it is
	// worker-count-deterministic for free. With no recorder in the context
	// this is a nil-check and nothing more.
	recordProvenance(provenance.FromCtx(ctx), p)
	if err != nil {
		rep.Elapsed = time.Since(start)
		return rep, err
	}

	// Deterministic assembly: install transitions in snippet/group/block
	// order regardless of the order jobs completed in.
	for _, g := range p.groups {
		g.assemble(p, rep)
	}
	rep.Elapsed = time.Since(start)
	if err := sys.Validate(); err != nil {
		return rep, fmt.Errorf("core: completed system is malformed: %w", err)
	}
	return rep, nil
}

// aggregate folds the jobs' times and outcomes and the holes' captured
// counters into the Report in plan order, so the counters are independent
// of scheduling.
func aggregate(rep *Report, p *planner, stats engine.RunStats) {
	rep.Workers = stats.Workers
	rep.Jobs = stats.Jobs
	rep.Utilization = stats.Utilization
	for _, chain := range p.chains {
		for _, j := range chain {
			switch j.Kind {
			case "guard":
				rep.GuardTime += j.Duration
				if j.Err == nil {
					rep.GuardsSynthesized++
				}
			case "update":
				rep.UpdateTime += j.Duration
				if j.Err == nil {
					rep.UpdatesSynthesized++
				}
			}
		}
	}
	for _, c := range p.caps {
		if !c.ran {
			continue
		}
		if c.kind == "guard" {
			rep.GuardExprsTried += c.stats.Concrete.Enumerated
		} else {
			rep.UpdateExprsTried += c.stats.Concrete.Enumerated
		}
		rep.SMTQueries += c.stats.SMTQueries
		switch {
		case c.tier == engine.TierMem || c.tier == engine.TierDisk:
			rep.CacheHits++
		case c.err == nil:
			rep.CacheMisses++
		}
	}
}

// block is one guard-action block: the snippets sharing (from, event,
// to), with its planned update jobs' targets and result slots (each job
// writes its own index; the engine's completion barrier orders those
// writes before assembly reads them).
type block struct {
	key      string
	snips    []*efsm.Snippet
	guard    expr.Expr // symbolic or synthesized
	symbolic bool
	defer_   bool
	sends    []efsm.SendSpec
	targets  []string
	rhs      []expr.Expr
}

// group is one (state, event) family of a process whose guards must be
// mutually exclusive.
type group struct {
	d         *efsm.ProcDef
	event     efsm.Event
	from      string
	blocks    []*block
	prefix    string // error-message prefix, e.g. "core: Dir (EXCLUSIVE, ReqNet)"
	scopeVars []*expr.Var
}

// planner accumulates the job chains and the assembly schedule.
type planner struct {
	sys    *efsm.System
	vocab  *expr.Vocabulary
	opts   Options
	cache  *engine.Cache
	chains [][]*engine.Job
	groups []*group // every process's groups, in plan order
	// caps holds one provenance capture per inference job, in plan order;
	// recordProvenance folds them into the run's ledger after the engine
	// run. Each job's Run closure writes only its own capture.
	caps []*holeCapture
}

// planDef groups a process's snippets into (state, event) families and
// plans each group. The grouping mirrors §5.2: snippets sharing
// (from, event, to, defer) form a block; blocks sharing (from, event)
// form a group.
func (p *planner) planDef(d *efsm.ProcDef, snips []*efsm.Snippet) {
	groups := map[string]*group{}
	var order []*group
	for _, sn := range snips {
		gk := sn.GroupKey()
		g, ok := groups[gk]
		if !ok {
			g = &group{d: d, event: sn.Event, from: sn.From}
			groups[gk] = g
			order = append(order, g)
		}
		bk := sn.BlockKey()
		var b *block
		for _, cand := range g.blocks {
			if cand.key == bk {
				b = cand
				break
			}
		}
		if b == nil {
			b = &block{key: bk, defer_: sn.Defer}
			g.blocks = append(g.blocks, b)
		}
		b.snips = append(b.snips, sn)
		if sn.Guard != nil {
			// A non-empty guard is symbolic (§3.2); multiple guarded
			// snippets in one block disjoin.
			if b.guard == nil {
				b.guard = sn.Guard
			} else if !expr.Equal(b.guard, sn.Guard) {
				b.guard = expr.Or(b.guard, sn.Guard)
			}
			b.symbolic = true
		}
	}
	for _, g := range order {
		p.planGroup(g)
	}
}

// planGroup plans one group: one chain of guard-inference jobs (§5.2 —
// each guard is constrained by the guards before it) ending in the
// mutual-exclusion check, and one chain per block output's
// update-inference job.
func (p *planner) planGroup(g *group) {
	d := g.d
	g.prefix = fmt.Sprintf("core: %s (%s, %s)", d.Name, g.from, g.event)
	g.scopeVars = p.sys.ScopeVars(d, g.event)
	p.groups = append(p.groups, g)

	// Guard inference needs symbolic blocks first (§5.2 processes blocks
	// sequentially; known guards constrain later ones).
	ordered := make([]*block, 0, len(g.blocks))
	for _, b := range g.blocks {
		if b.symbolic {
			ordered = append(ordered, b)
		}
	}
	for _, b := range g.blocks {
		if !b.symbolic {
			ordered = append(ordered, b)
		}
	}

	// Catch-all defers (no guard) are legal only as runtime fallbacks;
	// exclude them from guard inference entirely.
	inferable := ordered[:0:0]
	for _, b := range ordered {
		if b.defer_ && !b.symbolic {
			if len(g.blocks) == 1 {
				// Sole unconditional stall: emit directly.
				continue
			}
		}
		inferable = append(inferable, b)
	}

	// The group's chain: its guards, then its mutual-exclusion check.
	var chain []*engine.Job
	for j, b := range inferable {
		if b.symbolic || b.defer_ {
			continue // symbolic: given; catch-all defer: runtime fallback
		}
		job := &engine.Job{
			Label: fmt.Sprintf("guard %s(%s,%s)[%s]", d.Name, g.from, g.event, b.key),
			Kind:  "guard",
		}
		cap := &holeCapture{
			label: job.Label, kind: "guard",
			process: d.Name, from: g.from, event: g.event.Key(),
			block: b.key, target: guardVar,
		}
		p.caps = append(p.caps, cap)
		job.Run = func(jctx context.Context) error {
			guard, err := p.inferGuard(jctx, g, inferable, j, cap)
			if err != nil {
				return fmt.Errorf("%s: block %s: %w", g.prefix, b.key, err)
			}
			b.guard = guard
			return nil
		}
		chain = append(chain, job)
	}
	chain = append(chain, &engine.Job{
		Label: fmt.Sprintf("mutex %s(%s,%s)", d.Name, g.from, g.event),
		Kind:  "check",
		Run: func(jctx context.Context) error {
			if err := p.checkMutualExclusion(jctx, g, inferable); err != nil {
				return fmt.Errorf("%s: %w", g.prefix, err)
			}
			return nil
		},
	})
	p.chains = append(p.chains, chain)

	// Update-expression jobs per block: independent of everything.
	for _, b := range g.blocks {
		p.planBlock(g, b)
	}
}

// planBlock validates a block's outbound-message agreement, collects the
// obligations per output target (§5.1), and plans one inference job per
// target, each a chain of its own. Validation problems become
// immediately-failing jobs rather than plan-time errors so that, at
// Workers == 1, they surface in exactly the order the sequential
// implementation reported them.
func (p *planner) planBlock(g *group, b *block) {
	if b.defer_ {
		return
	}
	d := g.d
	first := b.snips[0]

	// All snippets of a block must declare the same outbound messages.
	b.sends = first.Sends
	for _, sn := range b.snips[1:] {
		if !sameSends(b.sends, sn.Sends) {
			p.planFailure(g, b, fmt.Errorf("snippets %q and %q disagree on outbound messages",
				first.Label, sn.Label))
			return
		}
	}

	// Collect posts per target across the block's cases, remembering which
	// snippet case produced each example for the provenance ledger.
	exsByTarget := map[string][]synth.ConcolicExample{}
	metaByTarget := map[string][]exampleMeta{}
	vtByTarget := map[string]expr.Type{}
	addPost := func(target string, vt expr.Type, pre expr.Expr, constraint expr.Expr, m exampleMeta) {
		if _, ok := vtByTarget[target]; !ok {
			vtByTarget[target] = vt
			b.targets = append(b.targets, target)
		}
		if pre == nil {
			pre = expr.True()
		}
		exsByTarget[target] = append(exsByTarget[target], synth.ConcolicExample{Pre: pre, Post: constraint})
		metaByTarget[target] = append(metaByTarget[target], m)
	}
	scope := p.sys.ScopeOf(d, g.event)
	outType := func(target string) (expr.Type, bool) {
		if ty, ok := scope[target]; ok {
			return ty, true
		}
		for _, snd := range b.sends {
			for _, f := range snd.Net.Msg.Fields {
				if snd.MsgVar+"."+f.Name == target {
					return f.T, true
				}
			}
		}
		return expr.Type{}, false
	}
	for _, sn := range b.snips {
		src := sn.Label
		if src == "" {
			src = b.key
		}
		for ci, c := range sn.Cases {
			for _, post := range c.Posts {
				vt, ok := outType(post.Target)
				if !ok {
					p.planFailure(g, b, fmt.Errorf("post targets %s, which is neither a process variable nor a declared outbound field", post.Target))
					return
				}
				addPost(post.Target, vt, c.Pre, post.Constraint,
					exampleMeta{kind: provenance.KindSnippet, source: src, caseIdx: ci})
			}
		}
	}

	// Every declared outbound field must be produced, constrained or not;
	// unconstrained fields are synthesized from an empty example set (the
	// first enumerated expression — deliberately arbitrary, per the
	// paper's underspecification-then-model-check dynamic). Multicast
	// routing fields are filled per copy by the runtime instead.
	for _, snd := range b.sends {
		for _, f := range snd.Net.Msg.Fields {
			if snd.TargetSet != nil && f.Name == snd.Net.DestField {
				continue
			}
			target := snd.MsgVar + "." + f.Name
			if _, ok := vtByTarget[target]; !ok {
				vtByTarget[target] = f.T
				b.targets = append(b.targets, target)
			}
		}
	}

	b.rhs = make([]expr.Expr, len(b.targets))
	for i, target := range b.targets {
		vt := vtByTarget[target]
		exs := exsByTarget[target]
		job := &engine.Job{
			Label: fmt.Sprintf("update %s(%s,%s)[%s] %s", d.Name, g.from, g.event, b.key, target),
			Kind:  "update",
		}
		cap := &holeCapture{
			label: job.Label, kind: "update",
			process: d.Name, from: g.from, event: g.event.Key(), to: first.To,
			block: b.key, target: target,
			exs: exs, meta: metaByTarget[target],
		}
		p.caps = append(p.caps, cap)
		job.Run = func(jctx context.Context) error {
			cap.ran = true
			o := expr.V(efsm.Prime(target), vt)
			prob := synth.Problem{U: p.sys.U, Vocab: p.vocab, Vars: g.scopeVars, Output: o}
			rhs, err := p.solve(jctx, cap, prob, exs)
			if err != nil {
				return fmt.Errorf("%s: block %s: update inference for %s: %w", g.prefix, b.key, target, err)
			}
			b.rhs[i] = rhs
			return nil
		}
		p.chains = append(p.chains, []*engine.Job{job})
	}
}

// planFailure records a static validation error as an immediately-failing
// job, a chain of one at the current plan position (planning continues;
// the failure is reported by the run, in plan order).
func (p *planner) planFailure(g *group, b *block, err error) {
	wrapped := fmt.Errorf("%s: block %s: %w", g.prefix, b.key, err)
	p.chains = append(p.chains, []*engine.Job{{
		Label: fmt.Sprintf("validate %s", b.key),
		Kind:  "update",
		Run:   func(context.Context) error { return wrapped },
	}})
}

// inferGuard implements §5.2: the guard ϕj must be false whenever an
// earlier guard holds (ConcolicExs1), true whenever one of its own
// preconditions holds (ConcolicExs2), and false whenever a later block's
// precondition holds (ConcolicExs3). Earlier blocks' guards are read at
// job-execution time — the chain dependency guarantees they are solved.
func (p *planner) inferGuard(ctx context.Context, g *group, blocks []*block, j int, cap *holeCapture) (expr.Expr, error) {
	o := expr.V(guardVar, expr.BoolType)
	var exs []synth.ConcolicExample
	var meta []exampleMeta
	for i := 0; i < j; i++ {
		if blocks[i].guard == nil {
			continue
		}
		exs = append(exs, synth.ConcolicExample{
			Pre:  expr.True(),
			Post: expr.Implies(blocks[i].guard, expr.Not(o)),
		})
		meta = append(meta, exampleMeta{kind: provenance.KindGuardExcludesPre, source: blocks[i].key, caseIdx: -1})
	}
	if pre := blockPre(blocks[j]); pre != nil {
		exs = append(exs, synth.ConcolicExample{Pre: expr.True(), Post: expr.Implies(pre, o)})
		meta = append(meta, exampleMeta{kind: provenance.KindGuardCoversPre, source: blocks[j].key, caseIdx: -1})
	}
	for i := j + 1; i < len(blocks); i++ {
		if blocks[i].symbolic {
			exs = append(exs, synth.ConcolicExample{
				Pre:  expr.True(),
				Post: expr.Implies(blocks[i].guard, expr.Not(o)),
			})
			meta = append(meta, exampleMeta{kind: provenance.KindGuardExcludesLater, source: blocks[i].key, caseIdx: -1})
			continue
		}
		if pre := blockPre(blocks[i]); pre != nil {
			exs = append(exs, synth.ConcolicExample{Pre: expr.True(), Post: expr.Implies(pre, expr.Not(o))})
			meta = append(meta, exampleMeta{kind: provenance.KindGuardExcludesLater, source: blocks[i].key, caseIdx: -1})
		}
	}
	cap.exs, cap.meta, cap.ran = exs, meta, true
	prob := synth.Problem{U: p.sys.U, Vocab: p.vocab, Vars: g.scopeVars, Output: o}
	guard, err := p.solve(ctx, cap, prob, exs)
	if err != nil {
		return nil, fmt.Errorf("guard inference: %w", err)
	}
	return guard, nil
}

// solve infers one hole through the memo cache. It records the
// solve's cache outcome and work counters on the job's engine.job span
// (ctx carries it), and the answer, its tier and its stats on the hole's
// capture, from which aggregate and the provenance ledger read them.
func (p *planner) solve(ctx context.Context, cap *holeCapture, prob synth.Problem, exs []synth.ConcolicExample) (expr.Expr, error) {
	res, stats, tier, err := p.cache.Solve(ctx, engine.SolveSpec{
		Problem: prob, Examples: exs, Limits: p.opts.Limits,
	})
	hit := tier == engine.TierMem || tier == engine.TierDisk
	obs.SpanFrom(ctx).SetAttr(obs.Bool("cache_hit", hit),
		obs.Int64("candidates", stats.Concrete.Enumerated),
		obs.Int("smt_queries", stats.SMTQueries), obs.Int("cegis_iterations", stats.Iterations))
	cap.expr, cap.stats, cap.tier, cap.err = res, stats, tier, err
	return res, err
}

// blockPre is the disjunction of a block's case preconditions (nil Pre
// means true, making the whole disjunction true).
func blockPre(b *block) expr.Expr {
	var pres []expr.Expr
	for _, sn := range b.snips {
		for _, c := range sn.Cases {
			if c.Pre == nil {
				return expr.True()
			}
			pres = append(pres, c.Pre)
		}
	}
	if len(pres) == 0 {
		return nil
	}
	return expr.Or(pres...)
}

// checkMutualExclusion statically verifies pairwise guard disjointness
// within a group via SMT validity: ¬(gi ∧ gj) must hold for every pair,
// i.e. gi ∧ gj must be unsatisfiable. A Sat verdict yields the canonical
// counterexample model, so failure messages are deterministic.
func (p *planner) checkMutualExclusion(ctx context.Context, g *group, blocks []*block) error {
	// Own span so the validity queries below don't read as CEGIS work in
	// the trace.
	ctx, span := obs.Start(ctx, "core.guard_check", obs.Int("blocks", len(blocks)))
	defer span.End()
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			gi, gj := blocks[i].guard, blocks[j].guard
			if gi == nil || gj == nil {
				continue
			}
			ok, cex, err := smt.ValidCtx(ctx, p.sys.U, g.scopeVars, expr.Not(expr.And(gi, gj)), smt.Options{})
			if err != nil {
				return fmt.Errorf("guard exclusivity check: %w", err)
			}
			if !ok {
				return fmt.Errorf("guards %s and %s overlap (e.g. %v)",
					expr.Pretty(gi), expr.Pretty(gj), cex)
			}
		}
	}
	return nil
}

// assemble installs the group's completed transitions (§5.1 assembly):
// guards from the chain, update expressions from the job result slots,
// identity updates dropped, outbound message fields wired. Pure
// bookkeeping — every solver call already happened inside the engine.
func (g *group) assemble(p *planner, rep *Report) {
	d := g.d
	scope := p.sys.ScopeOf(d, g.event)
	for _, b := range g.blocks {
		first := b.snips[0]
		t := &efsm.Transition{
			From:  g.from,
			Event: g.event,
			Guard: b.guard,
			To:    first.To,
			Defer: b.defer_,
		}
		if !b.defer_ {
			rhsByTarget := map[string]expr.Expr{}
			for i, target := range b.targets {
				rhsByTarget[target] = b.rhs[i]
			}
			// Process-variable updates (dropping identities) ...
			for _, target := range b.targets {
				if _, isVar := scope[target]; !isVar || d.VarIndex(target) < 0 {
					continue
				}
				rhs := rhsByTarget[target]
				if v, ok := rhs.(*expr.Var); ok && v.Name == target {
					continue // identity update: the variable is held anyway
				}
				t.Updates = append(t.Updates, efsm.Update{Var: target, Rhs: rhs})
			}
			// ... and outbound messages.
			for _, snd := range b.sends {
				out := efsm.Send{Net: snd.Net, MsgVar: snd.MsgVar, TargetSet: snd.TargetSet}
				for _, f := range snd.Net.Msg.Fields {
					if snd.TargetSet != nil && f.Name == snd.Net.DestField {
						continue
					}
					out.Fields = append(out.Fields, efsm.SendField{
						Field: f.Name,
						Rhs:   rhsByTarget[snd.MsgVar+"."+f.Name],
					})
				}
				t.Sends = append(t.Sends, out)
			}
		}
		d.Transitions = append(d.Transitions, t)
		rep.Transitions++
	}
}

func sameSends(a, b []efsm.SendSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Net != b[i].Net || a[i].MsgVar != b[i].MsgVar {
			return false
		}
		switch {
		case a[i].TargetSet == nil && b[i].TargetSet == nil:
		case a[i].TargetSet == nil || b[i].TargetSet == nil:
			return false
		case !expr.Equal(a[i].TargetSet, b[i].TargetSet):
			return false
		}
	}
	return true
}
