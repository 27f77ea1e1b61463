package core

import (
	"context"
	"strings"
	"testing"

	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/synth"
)

// anecdoteSystem reproduces the scope of the paper's §2 SGI-Origin
// anecdote: a directory with Owner/Sharers receiving READ/WRITE requests,
// plus a minimal cache definition to receive replies.
func anecdoteSystem(t *testing.T) (*efsm.System, *expr.Vocabulary, *efsm.ProcDef, *efsm.Network, *efsm.Network) {
	t.Helper()
	u := expr.NewUniverse(3)
	mt := u.MustDeclareEnum("ReqType", "READ", "WRITE")
	rt := u.MustDeclareEnum("RepType", "SPEC_REPLY", "INT_SHARED")

	cache := &efsm.ProcDef{
		Name:       "Cache",
		States:     u.MustDeclareEnum("CacheSt", "IDLE", "WAIT"),
		Init:       "IDLE",
		Replicated: true,
	}
	dir := &efsm.ProcDef{
		Name:   "Dir",
		States: u.MustDeclareEnum("DirSt", "EXCLUSIVE", "BUSY_SHARED"),
		Init:   "EXCLUSIVE",
		Vars: []*expr.Var{
			expr.V("Owner", expr.PIDType),
			expr.V("Sharers", expr.SetType),
		},
	}
	reqNet := &efsm.Network{
		Name: "ReqNet", Kind: efsm.Ordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "Req", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(mt)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	repNet := &efsm.Network{
		Name: "RepNet", Kind: efsm.Unordered, Receiver: cache, Route: efsm.RouteByField, DestField: "Dest",
		Msg: &efsm.MessageType{Name: "Rep", Fields: []efsm.Field{
			{Name: "RType", T: expr.EnumOf(rt)},
			{Name: "Dest", T: expr.PIDType},
		}},
	}
	sys := &efsm.System{Name: "anecdote", U: u,
		Networks: []*efsm.Network{reqNet, repNet},
		Defs:     []*efsm.ProcDef{dir, cache},
	}
	vocab := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums:             []*expr.EnumType{mt, rt},
		WithEnumConstants: true,
	})
	return sys, vocab, dir, reqNet, repNet
}

// sharersUpdateOf digs the synthesized Sharers update out of the completed
// directory.
func sharersUpdateOf(t *testing.T, dir *efsm.ProcDef) expr.Expr {
	t.Helper()
	for _, tr := range dir.Transitions {
		for _, up := range tr.Updates {
			if up.Var == "Sharers" {
				return up.Rhs
			}
		}
	}
	t.Fatal("no Sharers update synthesized")
	return nil
}

// TestAnecdoteUnderspecifiedThenFixed replays the §2 story at the
// synthesis level: the symbolic snippet alone yields
// Sharers ∪ {Msg.Sender}; adding the concrete bug-fix snippet yields
// Sharers ∪ {Msg.Sender, Owner}.
func TestAnecdoteUnderspecifiedThenFixed(t *testing.T) {
	mkSnippet := func(withFix bool) []*efsm.Snippet {
		sys, vocab, _, reqNet, repNet := anecdoteSystem(t)
		mtType, _ := sys.U.Enum("ReqType")
		mtField := expr.V("Msg.MType", expr.EnumOf(mtType))
		sender := expr.V("Msg.Sender", expr.PIDType)
		owner := expr.V("Owner", expr.PIDType)
		sharers := expr.V("Sharers", expr.SetType)
		sharersP := expr.V(efsm.Prime("Sharers"), expr.SetType)

		base := &efsm.Snippet{
			Label: "read-to-exclusive", Process: "Dir",
			From: "EXCLUSIVE", Event: efsm.Event{Net: reqNet, MsgVar: "Msg"},
			Guard: expr.And(expr.Eq(mtField, expr.EnumC(mtType, "READ")), expr.Neq(sender, owner)),
			To:    "BUSY_SHARED",
			Sends: []efsm.SendSpec{{Net: repNet, MsgVar: "RMsg"}},
			Cases: []efsm.SnippetCase{{
				Pre: nil,
				Posts: []efsm.Post{
					// "Sharers needs to contain at least the sender of
					// the received message in addition to the old value."
					{Target: "Sharers", Constraint: expr.SubsetEq(expr.SetAdd(sharers, sender), sharersP)},
					efsm.EqPost("RMsg.RType", expr.EnumC(sys.U.Enums()[1], "SPEC_REPLY")),
					efsm.EqPost("RMsg.Dest", sender),
				},
			}},
		}
		snips := []*efsm.Snippet{base}
		if withFix {
			rtType, _ := sys.U.Enum("RepType")
			fix := &efsm.Snippet{
				Label: "fig2-fix", Process: "Dir",
				From: "EXCLUSIVE", Event: efsm.Event{Net: reqNet, MsgVar: "Msg"},
				Guard: base.Guard, To: "BUSY_SHARED",
				Sends: []efsm.SendSpec{{Net: repNet, MsgVar: "RMsg"}},
				Cases: []efsm.SnippetCase{{
					// The counterexample scenario of Figure 2, pinned
					// concretely: Owner=C1, Sender=C2, Sharers={}.
					Pre: expr.And(
						expr.Eq(mtField, expr.EnumC(mtType, "READ")),
						expr.Eq(owner, expr.PIDC(1)),
						expr.Eq(sender, expr.PIDC(2)),
						expr.Eq(sharers, expr.NewConst(expr.SetVal(0)))),
					Posts: []efsm.Post{
						{Target: "Sharers", Constraint: expr.Eq(sharersP, expr.SetC(1, 2))},
						efsm.EqPost("RMsg.RType", expr.EnumC(rtType, "SPEC_REPLY")),
						efsm.EqPost("RMsg.Dest", sender),
					},
				}},
			}
			snips = append(snips, fix)
		}
		_, err := CompleteCtx(context.Background(), sys, vocab, snips, Options{Limits: synth.Limits{MaxSize: 10}})
		if err != nil {
			t.Fatalf("Complete (fix=%v): %v", withFix, err)
		}
		got := sharersUpdateOf(t, sys.Defs[0])
		// Check the semantics over a sweep of environments.
		u := sys.U
		for ownerPID := 0; ownerPID < 3; ownerPID++ {
			for senderPID := 0; senderPID < 3; senderPID++ {
				for mask := uint64(0); mask < 8; mask++ {
					env := expr.Env{
						"Owner":      expr.PIDVal(ownerPID),
						"Sharers":    expr.SetVal(mask),
						"Msg.Sender": expr.PIDVal(senderPID),
						"Msg.MType":  expr.EnumValOf(mtType, "READ"),
						efsm.SelfVar: expr.PIDVal(0),
					}
					out := got.Eval(u, env).Set()
					want := mask | 1<<uint(senderPID)
					if withFix {
						want |= 1 << uint(ownerPID)
					}
					if withFix && out != want {
						t.Fatalf("fixed update %s: env owner=%d sender=%d sharers=%b -> %b, want %b",
							expr.Pretty(got), ownerPID, senderPID, mask, out, want)
					}
					if !withFix && out != want {
						t.Fatalf("buggy update %s should be minimal superset: got %b, want %b",
							expr.Pretty(got), out, want)
					}
				}
			}
		}
		return snips
	}

	mkSnippet(false) // Sharers := Sharers ∪ {Msg.Sender}
	mkSnippet(true)  // Sharers := Sharers ∪ {Msg.Sender, Owner}
}

func TestCompleteSynthesizesGuards(t *testing.T) {
	sys, vocab, _, reqNet, repNet := anecdoteSystem(t)
	mtType, _ := sys.U.Enum("ReqType")
	rtType, _ := sys.U.Enum("RepType")
	mtField := expr.V("Msg.MType", expr.EnumOf(mtType))
	sender := expr.V("Msg.Sender", expr.PIDType)
	// Two blocks for (EXCLUSIVE, ReqNet) with empty guards, distinguished
	// only by their preconditions on the message type.
	read := &efsm.Snippet{
		Label: "read", Process: "Dir", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNet, MsgVar: "Msg"}, To: "BUSY_SHARED",
		Sends: []efsm.SendSpec{{Net: repNet, MsgVar: "R"}},
		Cases: []efsm.SnippetCase{{
			Pre: expr.Eq(mtField, expr.EnumC(mtType, "READ")),
			Posts: []efsm.Post{
				efsm.EqPost("R.RType", expr.EnumC(rtType, "SPEC_REPLY")),
				efsm.EqPost("R.Dest", sender),
			},
		}},
	}
	write := &efsm.Snippet{
		Label: "write", Process: "Dir", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNet, MsgVar: "Msg"}, To: "EXCLUSIVE",
		Sends: []efsm.SendSpec{{Net: repNet, MsgVar: "R"}},
		Cases: []efsm.SnippetCase{{
			Pre: expr.Eq(mtField, expr.EnumC(mtType, "WRITE")),
			Posts: []efsm.Post{
				efsm.EqPost("R.RType", expr.EnumC(rtType, "INT_SHARED")),
				efsm.EqPost("R.Dest", sender),
				efsm.EqPost("Owner", sender),
			},
		}},
	}
	rep, err := CompleteCtx(context.Background(), sys, vocab, []*efsm.Snippet{read, write}, Options{Limits: synth.Limits{MaxSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuardsSynthesized != 2 {
		t.Errorf("GuardsSynthesized = %d, want 2", rep.GuardsSynthesized)
	}
	if rep.Transitions != 2 {
		t.Errorf("Transitions = %d, want 2", rep.Transitions)
	}
	// The two guards must be mutually exclusive and cover their pres: the
	// static check already ran; assert behaviour directly too.
	u := sys.U
	var guards []expr.Expr
	for _, tr := range sys.Defs[0].Transitions {
		guards = append(guards, tr.Guard)
	}
	for senderPID := 0; senderPID < 3; senderPID++ {
		for _, mv := range []string{"READ", "WRITE"} {
			env := expr.Env{
				"Owner": expr.PIDVal(0), "Sharers": expr.SetVal(0),
				"Msg.MType": expr.EnumValOf(mtType, mv), "Msg.Sender": expr.PIDVal(senderPID),
				efsm.SelfVar: expr.PIDVal(0),
			}
			g0 := guards[0].Eval(u, env).Bool()
			g1 := guards[1].Eval(u, env).Bool()
			if g0 && g1 {
				t.Fatalf("guards overlap at %v", env)
			}
			wantRead := mv == "READ"
			if g0 != wantRead || g1 != !wantRead {
				t.Fatalf("guard split wrong at MType=%s: read=%v write=%v", mv, g0, g1)
			}
		}
	}
	if rep.UpdatesSynthesized == 0 || rep.UpdateExprsTried == 0 {
		t.Error("update metrics not populated")
	}
}

func TestCompleteRejectsUnknownProcess(t *testing.T) {
	sys, vocab, _, reqNet, _ := anecdoteSystem(t)
	sn := &efsm.Snippet{Process: "Nope", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNet, MsgVar: "Msg"}, To: "EXCLUSIVE"}
	if _, err := CompleteCtx(context.Background(), sys, vocab, []*efsm.Snippet{sn}, Options{}); err == nil {
		t.Error("expected unknown-process error")
	}
}

func TestCompleteRejectsOverlappingSymbolicGuards(t *testing.T) {
	sys, vocab, _, reqNet, _ := anecdoteSystem(t)
	mtType, _ := sys.U.Enum("ReqType")
	mtField := expr.V("Msg.MType", expr.EnumOf(mtType))
	g := expr.Eq(mtField, expr.EnumC(mtType, "READ"))
	a := &efsm.Snippet{Label: "a", Process: "Dir", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNet, MsgVar: "Msg"}, Guard: g, To: "EXCLUSIVE"}
	b := &efsm.Snippet{Label: "b", Process: "Dir", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNet, MsgVar: "Msg"}, Guard: g, To: "BUSY_SHARED"}
	_, err := CompleteCtx(context.Background(), sys, vocab, []*efsm.Snippet{a, b}, Options{})
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("expected overlap error, got %v", err)
	}
}

func TestCaseStudyDriverConvergence(t *testing.T) {
	// A deliberately underspecified spec that converges after one scripted
	// fix: the first round's WRITE requests are unexpected messages.
	build := func() (*efsm.System, *expr.Vocabulary, []mc.Invariant, error) {
		sys, vocab, dir, _, _ := anecdoteSystem(t)
		_ = dir
		// Give caches a trigger so requests actually flow.
		cache := sys.Defs[1]
		cache.Triggers = []string{"DoRead", "DoWrite"}
		return sys, vocab, nil, nil
	}
	// Snippet factories (fresh expressions per build are not needed; the
	// networks are recreated per build, so snippets must be rebuilt too).
	// For this test we instead build one system outside and reuse it: the
	// driver rebuilds, so snippets must reference the rebuilt networks.
	// To keep the test honest we construct the study over a fixed build.
	sysFixed, vocabFixed, _, reqNetF, repNetF := anecdoteSystem(t)
	cacheDef := sysFixed.Defs[1]
	cacheDef.Triggers = []string{"DoRead", "DoWrite"}
	mtType, _ := sysFixed.U.Enum("ReqType")
	rtType, _ := sysFixed.U.Enum("RepType")
	sender := expr.V("Msg.Sender", expr.PIDType)
	mtField := expr.V("Msg.MType", expr.EnumOf(mtType))
	rtField := expr.V("Msg.RType", expr.EnumOf(rtType))
	self := expr.V(efsm.SelfVar, expr.PIDType)

	cacheRead := &efsm.Snippet{
		Label: "cache-read", Process: "Cache", From: "IDLE",
		Event: efsm.Event{Trigger: "DoRead"}, To: "WAIT",
		Sends: []efsm.SendSpec{{Net: reqNetF, MsgVar: "Out"}},
		Cases: []efsm.SnippetCase{{Posts: []efsm.Post{
			efsm.EqPost("Out.MType", expr.EnumC(mtType, "READ")),
			efsm.EqPost("Out.Sender", self),
		}}},
	}
	cacheWrite := &efsm.Snippet{
		Label: "cache-write", Process: "Cache", From: "IDLE",
		Event: efsm.Event{Trigger: "DoWrite"}, To: "WAIT",
		Sends: []efsm.SendSpec{{Net: reqNetF, MsgVar: "Out"}},
		Cases: []efsm.SnippetCase{{Posts: []efsm.Post{
			efsm.EqPost("Out.MType", expr.EnumC(mtType, "WRITE")),
			efsm.EqPost("Out.Sender", self),
		}}},
	}
	cacheRecv := &efsm.Snippet{
		Label: "cache-recv", Process: "Cache", From: "WAIT",
		Event: efsm.Event{Net: repNetF, MsgVar: "Msg"},
		Guard: expr.Eq(rtField, rtField), // always true, symbolic
		To:    "IDLE",
	}
	dirRead := &efsm.Snippet{
		Label: "dir-read", Process: "Dir", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNetF, MsgVar: "Msg"},
		Guard: expr.Eq(mtField, expr.EnumC(mtType, "READ")),
		To:    "EXCLUSIVE",
		Sends: []efsm.SendSpec{{Net: repNetF, MsgVar: "R"}},
		// Posts are conditioned on the message type: the WRITE fix below
		// lands in the same (state, event, next-state) block (§5.2
		// grouping) and constrains the same outbound fields.
		Cases: []efsm.SnippetCase{{
			Pre: expr.Eq(mtField, expr.EnumC(mtType, "READ")),
			Posts: []efsm.Post{
				efsm.EqPost("R.RType", expr.EnumC(rtType, "SPEC_REPLY")),
				efsm.EqPost("R.Dest", sender),
			}}},
	}
	// The fix: handle WRITE (initially missing → unexpected message).
	dirWrite := &efsm.Snippet{
		Label: "dir-write", Process: "Dir", From: "EXCLUSIVE",
		Event: efsm.Event{Net: reqNetF, MsgVar: "Msg"},
		Guard: expr.Eq(mtField, expr.EnumC(mtType, "WRITE")),
		To:    "EXCLUSIVE",
		Sends: []efsm.SendSpec{{Net: repNetF, MsgVar: "R"}},
		Cases: []efsm.SnippetCase{{
			Pre: expr.Eq(mtField, expr.EnumC(mtType, "WRITE")),
			Posts: []efsm.Post{
				efsm.EqPost("R.RType", expr.EnumC(rtType, "INT_SHARED")),
				efsm.EqPost("R.Dest", sender),
			}}},
	}

	cs := CaseStudy{
		Name: "driver-smoke",
		Build: func() (*efsm.System, *expr.Vocabulary, []mc.Invariant, error) {
			// Reuse the fixed skeleton; Complete clears transitions.
			return sysFixed, vocabFixed, nil, nil
		},
		Initial: []*efsm.Snippet{cacheRead, cacheWrite, cacheRecv, dirRead},
		Fixes:   []FixBatch{{Label: "handle WRITE", Snippets: []*efsm.Snippet{dirWrite}}},
		MCOpts:  mc.Options{MaxStates: 200_000},
	}
	res, err := RunCaseStudyCtx(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("case study should converge")
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(res.Iterations))
	}
	first := res.Iterations[0]
	if first.Violation == nil || first.Violation.Kind != mc.SemanticsProblem {
		t.Fatalf("first iteration should hit unexpected WRITE, got %+v", first.Violation)
	}
	if res.TotalSnippets != 5 {
		t.Errorf("TotalSnippets = %d, want 5", res.TotalSnippets)
	}
	_ = build
}

func TestCaseStudyFixesExhausted(t *testing.T) {
	sysFixed, vocabFixed, _, reqNetF, _ := anecdoteSystem(t)
	cacheDef := sysFixed.Defs[1]
	cacheDef.Triggers = []string{"DoRead"}
	mtType, _ := sysFixed.U.Enum("ReqType")
	self := expr.V(efsm.SelfVar, expr.PIDType)
	cacheRead := &efsm.Snippet{
		Label: "cache-read", Process: "Cache", From: "IDLE",
		Event: efsm.Event{Trigger: "DoRead"}, To: "IDLE",
		Sends: []efsm.SendSpec{{Net: reqNetF, MsgVar: "Out"}},
		Cases: []efsm.SnippetCase{{Posts: []efsm.Post{
			efsm.EqPost("Out.MType", expr.EnumC(mtType, "READ")),
			efsm.EqPost("Out.Sender", self),
		}}},
	}
	// The directory never handles READ: unexpected message, no fixes.
	cs := CaseStudy{
		Name: "never-converges",
		Build: func() (*efsm.System, *expr.Vocabulary, []mc.Invariant, error) {
			return sysFixed, vocabFixed, nil, nil
		},
		Initial: []*efsm.Snippet{cacheRead},
		MCOpts:  mc.Options{MaxStates: 10_000},
	}
	if _, err := RunCaseStudyCtx(context.Background(), cs); err == nil {
		t.Fatal("expected fixes-exhausted error")
	}
}
