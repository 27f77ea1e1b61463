package mc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"transit/internal/efsm"
	"transit/internal/expr"
)

// tokenSystem builds a small mutual-exclusion token protocol: replicated
// clients request a token from a singleton server. Options mutate the
// protocol to exercise the checker's violation classes.
type tokenOpts struct {
	grantWhileBusy bool // grant in Busy too (breaks mutual exclusion)
	dropRelease    bool // server cannot handle Rel (unexpected message)
	overlapGuards  bool // two enabled guards for Req in Free
	noDone         bool // clients never release (deadlock with stalls)
	caches         int  // client count (0 means 2)
	owner          int  // the server's initial Owner; < 0 drops the Owner variable
}

func tokenSystem(t *testing.T, o tokenOpts) (*efsm.System, *efsm.ProcDef, *efsm.ProcDef) {
	t.Helper()
	n := o.caches
	if n == 0 {
		n = 2
	}
	u := expr.NewUniverse(n)
	mt := u.MustDeclareEnum("TokMT", "Req", "Grant", "Rel")

	client := &efsm.ProcDef{
		Name:       "Client",
		States:     u.MustDeclareEnum("ClientState", "Idle", "Waiting", "Holding"),
		Init:       "Idle",
		Replicated: true,
		Triggers:   []string{"Want", "Done"},
	}
	server := &efsm.ProcDef{
		Name:   "Server",
		States: u.MustDeclareEnum("ServerState", "Free", "Busy"),
		Init:   "Free",
	}
	var recordOwner []efsm.Update
	if o.owner >= 0 {
		server.Vars = []*expr.Var{expr.V("Owner", expr.PIDType)}
		server.InitVals = expr.Env{"Owner": expr.PIDVal(o.owner)}
		recordOwner = []efsm.Update{{Var: "Owner", Rhs: expr.V("Msg.Sender", expr.PIDType)}}
	}

	toServ := &efsm.Network{
		Name: "ToServ", Kind: efsm.Unordered, Receiver: server, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "ServMsg", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(mt)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	toCli := &efsm.Network{
		Name: "ToCli", Kind: efsm.Ordered, Receiver: client, Route: efsm.RouteByField, DestField: "Dest",
		Msg: &efsm.MessageType{Name: "CliMsg", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(mt)},
			{Name: "Dest", T: expr.PIDType},
		}},
	}

	self := expr.V(efsm.SelfVar, expr.PIDType)
	sender := expr.V("Msg.Sender", expr.PIDType)
	cliMT := expr.V("Msg.MType", expr.EnumOf(mt))

	client.Transitions = append(client.Transitions,
		&efsm.Transition{
			From: "Idle", Event: efsm.Event{Trigger: "Want"}, To: "Waiting",
			Sends: []efsm.Send{{Net: toServ, MsgVar: "Out", Fields: []efsm.SendField{
				{Field: "MType", Rhs: expr.EnumC(mt, "Req")},
				{Field: "Sender", Rhs: self},
			}}},
		},
		&efsm.Transition{
			From: "Waiting", Event: efsm.Event{Net: toCli, MsgVar: "Msg"},
			Guard: expr.Eq(cliMT, expr.EnumC(mt, "Grant")), To: "Holding",
		},
	)
	if !o.noDone {
		client.Transitions = append(client.Transitions, &efsm.Transition{
			From: "Holding", Event: efsm.Event{Trigger: "Done"}, To: "Idle",
			Sends: []efsm.Send{{Net: toServ, MsgVar: "Out", Fields: []efsm.SendField{
				{Field: "MType", Rhs: expr.EnumC(mt, "Rel")},
				{Field: "Sender", Rhs: self},
			}}},
		})
	}

	servMT := expr.V("Msg.MType", expr.EnumOf(mt))
	grant := func(from string) *efsm.Transition {
		return &efsm.Transition{
			From: from, Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			Guard:   expr.Eq(servMT, expr.EnumC(mt, "Req")),
			To:      "Busy",
			Updates: recordOwner,
			Sends: []efsm.Send{{Net: toCli, MsgVar: "Out", Fields: []efsm.SendField{
				{Field: "MType", Rhs: expr.EnumC(mt, "Grant")},
				{Field: "Dest", Rhs: sender},
			}}},
		}
	}
	server.Transitions = append(server.Transitions, grant("Free"))
	if o.grantWhileBusy {
		server.Transitions = append(server.Transitions, grant("Busy"))
	} else {
		server.Transitions = append(server.Transitions, &efsm.Transition{
			From: "Busy", Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			Guard: expr.Eq(servMT, expr.EnumC(mt, "Req")),
			Defer: true,
		})
	}
	if !o.dropRelease {
		server.Transitions = append(server.Transitions, &efsm.Transition{
			From: "Busy", Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			Guard: expr.Eq(servMT, expr.EnumC(mt, "Rel")),
			To:    "Free",
		})
	}
	if o.overlapGuards {
		server.Transitions = append(server.Transitions, &efsm.Transition{
			From: "Free", Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			To: "Free", // guard nil = true; overlaps with the Req guard
		})
	}

	sys := &efsm.System{
		Name: "token", U: u,
		Networks: []*efsm.Network{toServ, toCli},
		Defs:     []*efsm.ProcDef{server, client},
	}
	return sys, client, server
}

func mustRuntime(t *testing.T, sys *efsm.System) *efsm.Runtime {
	t.Helper()
	r, err := efsm.NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTokenProtocolSafe(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !res.Complete {
		t.Fatalf("expected clean check, got violation: %v", res.Violation)
	}
	if res.States < 10 {
		t.Errorf("suspiciously small state space: %d", res.States)
	}
	t.Logf("token protocol: %d states, %d transitions, depth %d", res.States, res.Transitions, res.Depth)
}

func TestMutualExclusionViolation(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{grantWhileBusy: true})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation == nil {
		t.Fatal("expected a violation")
	}
	if res.Violation.Kind != InvariantViolation {
		t.Fatalf("kind = %v", res.Violation.Kind)
	}
	if len(res.Violation.Trace) == 0 {
		t.Fatal("violation lacks a trace")
	}
	// Replay sanity: trace must start at the initial state and end in a
	// state where both clients hold the token.
	last := res.Violation.Trace[len(res.Violation.Trace)-1].State
	if !strings.Contains(last, "Client0{Holding") || !strings.Contains(last, "Client1{Holding") {
		t.Errorf("final trace state does not show double-holding: %s", last)
	}
}

func TestUnexpectedMessage(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{dropRelease: true})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation == nil || res.Violation.Kind != SemanticsProblem {
		t.Fatalf("expected unexpected-message problem, got %+v", res.Violation)
	}
	if !strings.Contains(res.Violation.Detail, "Rel") {
		t.Errorf("detail should mention the Rel message: %s", res.Violation.Detail)
	}
}

func TestNondeterministicGuards(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{overlapGuards: true})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation == nil || res.Violation.Kind != SemanticsProblem {
		t.Fatalf("expected nondeterminism problem, got %+v", res.Violation)
	}
	if !strings.Contains(res.Violation.Name, "nondeterministic") {
		t.Errorf("name = %s", res.Violation.Name)
	}
}

func TestDeadlockDetection(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{noDone: true})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{CheckDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation == nil || res.Violation.Kind != Deadlock {
		t.Fatalf("expected deadlock, got %+v", res.Violation)
	}
}

func TestMaxStatesBudget(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	_, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{MaxStates: 3})
	if !errors.Is(err, ErrStateBudget) {
		t.Fatalf("err = %v, want ErrStateBudget", err)
	}
}

func TestMaxDepthIncomplete(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("depth-bounded run should pass")
	}
	full, err := Check(r, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.States >= full.States {
		t.Errorf("depth bound should cut exploration: %d vs %d", res.States, full.States)
	}
}

func TestSWMRInvariant(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{grantWhileBusy: true})
	r := mustRuntime(t, sys)
	// Treat Holding as a writer state with no reader states: SWMR reduces
	// to mutual exclusion and must catch the double grant.
	res, err := Check(r, []Invariant{SWMR(client, []string{"Holding"}, nil)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation.Kind != InvariantViolation || res.Violation.Name != "SWMR" {
		t.Fatalf("expected SWMR violation, got %+v", res.Violation)
	}
}

func TestRuntimeStateEncodingCanonical(t *testing.T) {
	sys, _, server := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	st := r.Initial()
	// Two pending requests on the unordered network in either insertion
	// order must encode identically.
	u := sys.U
	mt, _ := u.Enum("TokMT")
	req := func(pid int) efsm.Msg {
		return efsm.Msg{expr.EnumValOf(mt, "Req"), expr.PIDVal(pid)}
	}
	a := st.Clone()
	r.SetPending(a, 0, 0, req(0), req(1))
	b := st.Clone()
	r.SetPending(b, 0, 0, req(1), req(0))
	if r.Encode(a) != r.Encode(b) {
		t.Error("unordered network contents should encode canonically")
	}
	_ = server
}

func TestRuntimeCloneIndependence(t *testing.T) {
	sys, _, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	st := r.Initial()
	cl := st.Clone()
	r.SetCtl(cl, 0, "Busy")
	r.SetVar(cl, 0, "Owner", expr.PIDVal(1))
	if r.CtlOf(st, 0) == r.CtlOf(cl, 0) || r.VarOf(st, 0, "Owner") == r.VarOf(cl, 0, "Owner") {
		t.Error("Clone aliases original state")
	}
}

func TestOrderedNetworkFIFO(t *testing.T) {
	sys, _, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	u := sys.U
	mt, _ := u.Enum("TokMT")
	st := r.Initial()
	// Put Grant then Rel in client0's ordered queue; only the head (Grant)
	// may be delivered.
	r.SetPending(st, 1, 0,
		efsm.Msg{expr.EnumValOf(mt, "Grant"), expr.PIDVal(0)},
		efsm.Msg{expr.EnumValOf(mt, "Rel"), expr.PIDVal(0)},
	)
	// Move client0 to Waiting so Grant is handled.
	r.SetCtl(st, 1, "Waiting") // instance 0 is the server; 1 is Client0
	acts, probs := r.Actions(st)
	if len(probs) != 0 {
		t.Fatalf("unexpected problems: %v", probs)
	}
	deliveries := 0
	for _, a := range acts {
		if a.Net == 1 {
			deliveries++
			if a.Pos != 0 {
				t.Error("ordered delivery must be from the head")
			}
		}
	}
	if deliveries != 1 {
		t.Errorf("expected exactly 1 delivery action from ordered queue, got %d", deliveries)
	}
}

func TestParallelAssignment(t *testing.T) {
	// A process that swaps two variables in one transition: parallel
	// semantics must read both pre-state values.
	u := expr.NewUniverse(2)
	pd := &efsm.ProcDef{
		Name:   "Swapper",
		States: u.MustDeclareEnum("SwapState", "S"),
		Init:   "S",
		Vars:   []*expr.Var{expr.V("X", expr.IntType), expr.V("Y", expr.IntType)},
		InitVals: expr.Env{
			"X": expr.IntVal(u, 1),
			"Y": expr.IntVal(u, 2),
		},
		Triggers: []string{"Go"},
	}
	pd.Transitions = []*efsm.Transition{{
		From: "S", Event: efsm.Event{Trigger: "Go"}, To: "S",
		Updates: []efsm.Update{
			{Var: "X", Rhs: expr.V("Y", expr.IntType)},
			{Var: "Y", Rhs: expr.V("X", expr.IntType)},
		},
	}}
	sys := &efsm.System{Name: "swap", U: u, Defs: []*efsm.ProcDef{pd}}
	r := mustRuntime(t, sys)
	st := r.Initial()
	acts, _ := r.Actions(st)
	if len(acts) != 1 {
		t.Fatalf("want 1 action, got %d", len(acts))
	}
	next := r.Apply(st, acts[0])
	if r.VarOf(next, 0, "X").Int() != 2 || r.VarOf(next, 0, "Y").Int() != 1 {
		t.Errorf("swap failed: X=%v Y=%v", r.VarOf(next, 0, "X"), r.VarOf(next, 0, "Y"))
	}
}

func TestSystemValidation(t *testing.T) {
	u := expr.NewUniverse(2)
	states := u.MustDeclareEnum("VState", "A")
	good := &efsm.ProcDef{Name: "P", States: states, Init: "A"}
	cases := []struct {
		name string
		sys  *efsm.System
	}{
		{"bad init", &efsm.System{U: u, Defs: []*efsm.ProcDef{{Name: "P", States: states, Init: "Z"}}}},
		{"no universe", &efsm.System{Defs: []*efsm.ProcDef{good}}},
		{"bad route", &efsm.System{U: u, Defs: []*efsm.ProcDef{good},
			Networks: []*efsm.Network{{Name: "N", Receiver: good, Route: efsm.RouteByField, DestField: "Nope",
				Msg: &efsm.MessageType{Name: "M"}}}}},
	}
	for _, c := range cases {
		if err := c.sys.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestTransitionValidation(t *testing.T) {
	u := expr.NewUniverse(2)
	pd := &efsm.ProcDef{
		Name:   "P",
		States: u.MustDeclareEnum("TVState", "A", "B"),
		Init:   "A",
		Vars:   []*expr.Var{expr.V("N", expr.IntType)},
	}
	mk := func(t *efsm.Transition) *efsm.System {
		cp := *pd
		cp.Transitions = []*efsm.Transition{t}
		return &efsm.System{U: u, Defs: []*efsm.ProcDef{&cp}}
	}
	ev := efsm.Event{Trigger: "Go"}
	bad := []*efsm.Transition{
		{From: "Z", Event: ev, To: "A"},                                                                 // unknown source
		{From: "A", Event: ev, To: "Z"},                                                                 // unknown target
		{From: "A", Event: ev, To: "B", Guard: expr.V("N", expr.IntType)},                               // non-bool guard
		{From: "A", Event: ev, To: "B", Updates: []efsm.Update{{Var: "Q", Rhs: expr.True()}}},           // unknown var
		{From: "A", Event: ev, To: "B", Updates: []efsm.Update{{Var: "N", Rhs: expr.True()}}},           // type mismatch
		{From: "A", Event: ev, To: "B", Guard: expr.Eq(expr.V("Other", expr.IntType), expr.IntC(u, 0))}, // out of scope
	}
	for i, tr := range bad {
		if err := mk(tr).Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := &Violation{Kind: InvariantViolation, Name: "inv", Detail: "boom",
		Trace: []TraceStep{{State: "s0"}, {Action: "a1", State: "s1"}}}
	s := v.String()
	for _, want := range []string{"invariant violation", "inv", "boom", "s0", "a1", "s1"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation string missing %q:\n%s", want, s)
		}
	}
}

func TestFormatMSC(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{grantWhileBusy: true})
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("expected violation")
	}
	msc := FormatMSC(r, res.Violation.Actions())
	for _, want := range []string{"Server", "Client0", "Client1", "ToServ", "Grant", "->", "*"} {
		if !strings.Contains(msc, want) {
			t.Errorf("MSC missing %q:\n%s", want, msc)
		}
	}
	t.Logf("message-sequence chart:\n%s", msc)
	// CheckWithMSC agrees with Check and carries the chart.
	r2 := mustRuntime(t, sys)
	res2, chart, err := CheckWithMSC(r2, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violation == nil || chart == "" {
		t.Fatal("CheckWithMSC should produce a chart for violations")
	}
}

func TestFormatMSCCleanRunHasNoChart(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	res, chart, err := CheckWithMSC(r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || chart != "" {
		t.Fatalf("clean run: ok=%v chart=%q", res.OK, chart)
	}
}

// TestControlOrdinalAbove255: a process with more than 256 control states
// must keep ordinals 0 and 256 apart. A 257-state counter stepping
// S0 -> S1 -> ... -> S256 reaches S256 at depth 256, where the invariant
// fails; a key that kept only the low byte of the ordinal would fold S256
// onto the initial state and report the space complete at 256 states.
func TestControlOrdinalAbove255(t *testing.T) {
	const n = 257
	u := expr.NewUniverse(2)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i)
	}
	counter := &efsm.ProcDef{
		Name:     "Counter",
		States:   u.MustDeclareEnum("CounterSt", names...),
		Init:     "S0",
		Triggers: []string{"Step"},
	}
	for i := 0; i+1 < n; i++ {
		counter.Transitions = append(counter.Transitions, &efsm.Transition{
			From: names[i], Event: efsm.Event{Trigger: "Step"}, To: names[i+1]})
	}
	r := mustRuntime(t, &efsm.System{Name: "counter", U: u, Defs: []*efsm.ProcDef{counter}})
	last := names[n-1]
	inv := Predicate("never "+last, func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		if r.CtlOf(st, 0) == last {
			return false, "counter reached " + last
		}
		return true, ""
	})
	res, err := Check(r, []Invariant{inv}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation == nil || res.Violation.Kind != InvariantViolation {
		t.Fatalf("want the %s violation, got ok=%v complete=%v states=%d", last, res.OK, res.Complete, res.States)
	}
	if res.States != n || res.Depth != n-1 || len(res.Violation.Trace) != n {
		t.Errorf("states=%d depth=%d trace=%d, want %d/%d/%d",
			res.States, res.Depth, len(res.Violation.Trace), n, n-1, n)
	}
}
