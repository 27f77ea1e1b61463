package mc

import (
	"errors"
	"reflect"
	"testing"

	"transit/internal/efsm"
	"transit/internal/expr"
)

// normalize zeroes the wall-clock fields, the only Result fields allowed
// to differ across worker counts and runs.
func normalize(res *Result) *Result {
	res.Elapsed = 0
	res.StatesPerSec = 0
	return res
}

// grantSystem builds an n-cache request/grant protocol whose server
// records the owner PID, parameterized by the initial owner so tests can
// feed the checker PID-permuted variants of the same system. A negative
// initial owner drops the Owner variable.
func grantSystem(t *testing.T, n, initialOwner int) (*efsm.System, *efsm.ProcDef) {
	t.Helper()
	u := expr.NewUniverse(n)
	mt := u.MustDeclareEnum("GrMT", "Req", "Grant", "Rel")
	client := &efsm.ProcDef{
		Name:       "Client",
		States:     u.MustDeclareEnum("GrClientSt", "Idle", "Waiting", "Holding"),
		Init:       "Idle",
		Replicated: true,
		Triggers:   []string{"Want", "Done"},
	}
	server := &efsm.ProcDef{
		Name:   "Server",
		States: u.MustDeclareEnum("GrServerSt", "Free", "Busy"),
		Init:   "Free",
	}
	var recordOwner []efsm.Update
	if initialOwner >= 0 {
		server.Vars = []*expr.Var{expr.V("Owner", expr.PIDType)}
		server.InitVals = expr.Env{"Owner": expr.PIDVal(initialOwner)}
		recordOwner = []efsm.Update{{Var: "Owner", Rhs: expr.V("Msg.Sender", expr.PIDType)}}
	}
	toServ := &efsm.Network{
		Name: "ToServ", Kind: efsm.Unordered, Receiver: server, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "GrServMsg", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(mt)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	toCli := &efsm.Network{
		Name: "ToCli", Kind: efsm.Ordered, Receiver: client, Route: efsm.RouteByField, DestField: "Dest",
		Msg: &efsm.MessageType{Name: "GrCliMsg", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(mt)},
			{Name: "Dest", T: expr.PIDType},
		}},
	}
	self := expr.V(efsm.SelfVar, expr.PIDType)
	sender := expr.V("Msg.Sender", expr.PIDType)
	cliMT := expr.V("Msg.MType", expr.EnumOf(mt))
	servMT := expr.V("Msg.MType", expr.EnumOf(mt))
	client.Transitions = []*efsm.Transition{
		{
			From: "Idle", Event: efsm.Event{Trigger: "Want"}, To: "Waiting",
			Sends: []efsm.Send{{Net: toServ, MsgVar: "Out", Fields: []efsm.SendField{
				{Field: "MType", Rhs: expr.EnumC(mt, "Req")},
				{Field: "Sender", Rhs: self},
			}}},
		},
		{
			From: "Waiting", Event: efsm.Event{Net: toCli, MsgVar: "Msg"},
			Guard: expr.Eq(cliMT, expr.EnumC(mt, "Grant")), To: "Holding",
		},
		{
			From: "Holding", Event: efsm.Event{Trigger: "Done"}, To: "Idle",
			Sends: []efsm.Send{{Net: toServ, MsgVar: "Out", Fields: []efsm.SendField{
				{Field: "MType", Rhs: expr.EnumC(mt, "Rel")},
				{Field: "Sender", Rhs: self},
			}}},
		},
	}
	server.Transitions = []*efsm.Transition{
		{
			From: "Free", Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			Guard:   expr.Eq(servMT, expr.EnumC(mt, "Req")),
			To:      "Busy",
			Updates: recordOwner,
			Sends: []efsm.Send{{Net: toCli, MsgVar: "Out", Fields: []efsm.SendField{
				{Field: "MType", Rhs: expr.EnumC(mt, "Grant")},
				{Field: "Dest", Rhs: sender},
			}}},
		},
		{
			From: "Busy", Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			Guard: expr.Eq(servMT, expr.EnumC(mt, "Req")),
			Defer: true,
		},
		{
			From: "Busy", Event: efsm.Event{Net: toServ, MsgVar: "Msg"},
			Guard: expr.Eq(servMT, expr.EnumC(mt, "Rel")),
			To:    "Free",
		},
	}
	sys := &efsm.System{
		Name: "grant", U: u,
		Networks: []*efsm.Network{toServ, toCli},
		Defs:     []*efsm.ProcDef{server, client},
	}
	return sys, client
}

// TestWorkerParity pins the central determinism contract: for every
// violation class and with symmetry reduction both off and on, workers=1,
// 2, and 8 produce byte-identical Results — counterexample trace, action
// path and counters included. Only the wall-clock fields are exempt. Run
// under -race this also exercises the phase barriers of the parallel
// engine.
func TestWorkerParity(t *testing.T) {
	fixtures := []struct {
		name     string
		o        tokenOpts
		deadlock bool
	}{
		{"safe", tokenOpts{}, false},
		{"mutex-violation", tokenOpts{grantWhileBusy: true}, false},
		{"unexpected-message", tokenOpts{dropRelease: true}, false},
		{"nondeterministic-guards", tokenOpts{overlapGuards: true}, false},
		{"deadlock", tokenOpts{noDone: true}, true},
	}
	for _, f := range fixtures {
		for _, sym := range []bool{false, true} {
			name := f.name + "/sym=off"
			if sym {
				name = f.name + "/sym=on"
			}
			t.Run(name, func(t *testing.T) {
				sys, client, _ := tokenSystem(t, f.o)
				r := mustRuntime(t, sys)
				var base *Result
				for _, w := range []int{1, 2, 8} {
					res, err := Check(r, []Invariant{AtMostOne(client, "Holding")},
						Options{CheckDeadlock: f.deadlock, Workers: w, SymmetryReduction: sym})
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					normalize(res)
					if base == nil {
						base = res
						continue
					}
					if !reflect.DeepEqual(base, res) {
						t.Errorf("workers=%d diverges from workers=1:\n  base: %+v\n  got:  %+v", w, base, res)
					}
				}
			})
		}
	}
}

// TestWorkerParityBudgets pins that budget errors and depth cuts land on
// exactly the same state regardless of worker count.
func TestWorkerParityBudgets(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	for _, sym := range []bool{false, true} {
		var baseBudget, baseDepth *Result
		for _, w := range []int{1, 2, 8} {
			res, err := Check(r, []Invariant{AtMostOne(client, "Holding")},
				Options{MaxStates: 7, Workers: w, SymmetryReduction: sym})
			if !errors.Is(err, ErrStateBudget) {
				t.Fatalf("workers=%d: err = %v, want ErrStateBudget", w, err)
			}
			normalize(res)
			if baseBudget == nil {
				baseBudget = res
			} else if !reflect.DeepEqual(baseBudget, res) {
				t.Errorf("budget abort diverges at workers=%d: %+v vs %+v", w, baseBudget, res)
			}
			res, err = Check(r, []Invariant{AtMostOne(client, "Holding")},
				Options{MaxDepth: 2, Workers: w, SymmetryReduction: sym})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if !res.OK || res.Complete {
				t.Errorf("depth-cut run must be OK but not Complete: %+v", res)
			}
			normalize(res)
			if baseDepth == nil {
				baseDepth = res
			} else if !reflect.DeepEqual(baseDepth, res) {
				t.Errorf("depth cut diverges at workers=%d: %+v vs %+v", w, baseDepth, res)
			}
		}
	}
}

// TestSymmetryAgreement: reduction on and off must agree on the verdict
// and, for violations, on the (shortest) counterexample length — the
// trace itself may name a different member of the same orbit.
func TestSymmetryAgreement(t *testing.T) {
	fixtures := []struct {
		name     string
		o        tokenOpts
		deadlock bool
	}{
		{"safe", tokenOpts{}, false},
		{"mutex-violation", tokenOpts{grantWhileBusy: true}, false},
		{"unexpected-message", tokenOpts{dropRelease: true}, false},
		{"deadlock", tokenOpts{noDone: true}, true},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			sys, client, _ := tokenSystem(t, f.o)
			r := mustRuntime(t, sys)
			opts := Options{CheckDeadlock: f.deadlock}
			plain, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.SymmetryReduction = true
			opts.Workers = 4
			red, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !red.SymmetryApplied {
				t.Fatal("token system is symmetric; reduction should have applied")
			}
			if plain.OK != red.OK {
				t.Fatalf("verdicts disagree: plain=%v reduced=%v", plain.OK, red.OK)
			}
			if plain.Violation != nil {
				if red.Violation == nil {
					t.Fatal("reduced run lost the violation")
				}
				if plain.Violation.Kind != red.Violation.Kind {
					t.Errorf("kinds disagree: %v vs %v", plain.Violation.Kind, red.Violation.Kind)
				}
				if len(plain.Violation.Trace) != len(red.Violation.Trace) {
					t.Errorf("trace lengths disagree: %d vs %d",
						len(plain.Violation.Trace), len(red.Violation.Trace))
				}
			}
			if plain.OK && red.States >= plain.States {
				t.Errorf("reduction did not shrink the safe space: %d vs %d", red.States, plain.States)
			}
		})
	}
}

// TestPermutedInitialSystems is the orbit-invariance property test: the
// same protocol seeded with PID-permuted initial values must explore the
// identical canonical reachable set — same state count, transition count,
// depth and reduction factor.
func TestPermutedInitialSystems(t *testing.T) {
	const n = 3
	var base *Result
	for owner := 0; owner < n; owner++ {
		sys, client := grantSystem(t, n, owner)
		r := mustRuntime(t, sys)
		res, err := Check(r, []Invariant{AtMostOne(client, "Holding")},
			Options{SymmetryReduction: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.SymmetryApplied {
			t.Fatal("grant system is symmetric; reduction should have applied")
		}
		if !res.OK || !res.Complete {
			t.Fatalf("owner=%d: %+v", owner, res.Violation)
		}
		normalize(res)
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("owner=%d: canonical reachable set differs:\n  base: %+v\n  got:  %+v",
				owner, base, res)
		}
	}
	if base.ReductionFactor <= 1.5 {
		t.Errorf("3-cache reduction factor = %.2f, want > 1.5", base.ReductionFactor)
	}
}

// TestTraceDeterministicPredecessor is the buildTrace regression: the
// violating state (and states on the way to it) are diamond joins
// reachable from several same-depth parents, and the reported trace must
// pick the same — lexicographically least — predecessor chain on every
// run and every worker count.
func TestTraceDeterministicPredecessor(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{grantWhileBusy: true})
	r := mustRuntime(t, sys)
	var want []TraceStep
	for trial := 0; trial < 5; trial++ {
		for _, w := range []int{1, 8} {
			res, err := Check(r, []Invariant{AtMostOne(client, "Holding")}, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatal("expected violation")
			}
			if want == nil {
				want = res.Violation.Trace
				continue
			}
			if !reflect.DeepEqual(want, res.Violation.Trace) {
				t.Fatalf("trial %d workers=%d: trace differs:\n%v\nvs\n%v",
					trial, w, want, res.Violation.Trace)
			}
		}
	}
}

// TestSymmetryAutoDisables: asymmetric systems run unreduced instead of
// failing or canonicalizing unsoundly.
func TestSymmetryAutoDisables(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	sys.Defs[1].Asymmetric = true
	r := mustRuntime(t, sys)
	res, err := Check(r, []Invariant{AtMostOne(client, "Holding")},
		Options{SymmetryReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SymmetryApplied {
		t.Error("reduction must auto-disable on an Asymmetric definition")
	}
	if !res.OK || !res.Complete {
		t.Errorf("unreduced fallback must still verify: %+v", res.Violation)
	}
	if res.ReductionFactor != 1.0 {
		t.Errorf("reduction factor without symmetry = %f, want 1.0", res.ReductionFactor)
	}
}

// TestSymmetricViolationTraceReplays: a counterexample found on canonical
// representatives must still be a genuine execution of the original
// system — replaying its action path step by step reproduces the trace
// and ends in a state violating the invariant.
func TestSymmetricViolationTraceReplays(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{grantWhileBusy: true})
	r := mustRuntime(t, sys)
	inv := AtMostOne(client, "Holding")
	res, err := Check(r, []Invariant{inv}, Options{SymmetryReduction: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || !res.SymmetryApplied {
		t.Fatalf("expected reduced violation, got %+v", res)
	}
	st := r.Initial()
	if got := r.FormatState(st); got != res.Violation.Trace[0].State {
		t.Fatalf("trace must start at the initial state: %q vs %q", got, res.Violation.Trace[0].State)
	}
	for i, a := range res.Violation.Actions() {
		st = r.Apply(st, a)
		if got := r.FormatState(st); got != res.Violation.Trace[i+1].State {
			t.Fatalf("step %d: replayed state %q != trace state %q", i, got, res.Violation.Trace[i+1].State)
		}
	}
	if ok, _ := inv.Check(r, st); ok {
		t.Error("replayed final state does not violate the invariant")
	}
}
