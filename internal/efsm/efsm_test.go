package efsm

import (
	"slices"
	"strings"
	"testing"

	"transit/internal/expr"
)

// miniSystem builds a 3-cache system with a directory, one ordered
// request net and one by-field reply net, for unit-testing the runtime
// machinery directly.
func miniSystem(t *testing.T) (*System, *ProcDef, *ProcDef, *Network, *Network) {
	t.Helper()
	u := expr.NewUniverse(3)
	mt := u.MustDeclareEnum("MiniMT", "A", "B")
	cache := &ProcDef{
		Name:       "Cache",
		States:     u.MustDeclareEnum("MiniCacheSt", "X", "Y"),
		Init:       "X",
		Replicated: true,
	}
	dir := &ProcDef{
		Name:   "Dir",
		States: u.MustDeclareEnum("MiniDirSt", "D"),
		Init:   "D",
		Vars:   []*expr.Var{expr.V("Sharers", expr.SetType)},
		InitVals: expr.Env{
			"Sharers": expr.SetOf(0, 2),
		},
	}
	up := &Network{
		Name: "Up", Kind: Ordered, Receiver: dir, Route: RouteStatic,
		Msg: &MessageType{Name: "UpM", Fields: []Field{
			{Name: "K", T: expr.EnumOf(mt)},
			{Name: "From", T: expr.PIDType},
		}},
	}
	down := &Network{
		Name: "Down", Kind: Unordered, Receiver: cache, Route: RouteByField, DestField: "Dest",
		Msg: &MessageType{Name: "DownM", Fields: []Field{
			{Name: "K", T: expr.EnumOf(mt)},
			{Name: "Dest", T: expr.PIDType},
		}},
	}
	sys := &System{Name: "mini", U: u, Networks: []*Network{up, down}, Defs: []*ProcDef{dir, cache}}
	return sys, dir, cache, up, down
}

func TestInitValsApplied(t *testing.T) {
	sys, dir, _, _, _ := miniSystem(t)
	dir.Transitions = nil
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Initial()
	if r.VarOf(st, 0, "Sharers").Set() != 0b101 {
		t.Errorf("InitVals not applied: %v", r.VarOf(st, 0, "Sharers"))
	}
}

func TestMulticastApply(t *testing.T) {
	sys, dir, _, up, down := miniSystem(t)
	u := sys.U
	mt, _ := u.Enum("MiniMT")
	sharers := expr.V("Sharers", expr.SetType)
	from := expr.V("In.From", expr.PIDType)
	dir.Transitions = []*Transition{{
		From: "D", Event: Event{Net: up, MsgVar: "In"}, To: "D",
		Sends: []Send{{
			Net: down, MsgVar: "Out",
			TargetSet: expr.SetMinus(sharers, expr.Singleton(from)),
			Fields:    []SendField{{Field: "K", Rhs: expr.EnumC(mt, "B")}},
		}},
	}}
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Initial()
	// Inject a request from C0; Sharers = {C0, C2}, so the multicast goes
	// to C2 only.
	r.SetPending(st, 0, 0, Msg{expr.EnumValOf(mt, "A"), expr.PIDVal(0)})
	acts, probs := r.Actions(st)
	if len(probs) != 0 || len(acts) != 1 {
		t.Fatalf("acts=%d probs=%v", len(acts), probs)
	}
	next := r.Pending(r.Apply(st, acts[0]), 1)
	if len(next[0]) != 0 || len(next[1]) != 0 {
		t.Error("multicast must exclude the sender and non-members")
	}
	if len(next[2]) != 1 {
		t.Fatalf("C2 should receive exactly one copy, got %d", len(next[2]))
	}
	msg := next[2][0]
	if msg[1].PID() != 2 {
		t.Errorf("Dest field should be the member PID, got %v", msg[1])
	}
	if msg[0].EnumOrd() != mt.Ord("B") {
		t.Errorf("payload field wrong: %v", msg[0])
	}
}

func TestMulticastValidation(t *testing.T) {
	sys, dir, _, up, down := miniSystem(t)
	sharers := expr.V("Sharers", expr.SetType)
	// Multicast on a statically routed network is rejected.
	dir.Transitions = []*Transition{{
		From: "D", Event: Event{Net: up, MsgVar: "In"}, To: "D",
		Sends: []Send{{Net: up, MsgVar: "Out", TargetSet: sharers}},
	}}
	if err := sys.Validate(); err == nil {
		t.Error("multicast on static route should fail validation")
	}
	// Assigning the routing field of a multicast is rejected.
	dir.Transitions = []*Transition{{
		From: "D", Event: Event{Net: up, MsgVar: "In"}, To: "D",
		Sends: []Send{{
			Net: down, MsgVar: "Out", TargetSet: sharers,
			Fields: []SendField{{Field: "Dest", Rhs: expr.V("In.From", expr.PIDType)}},
		}},
	}}
	if err := sys.Validate(); err == nil {
		t.Error("assigning the multicast routing field should fail validation")
	}
}

func TestEncodeDistinguishesOrderedQueues(t *testing.T) {
	sys, dir, _, _, _ := miniSystem(t)
	dir.Transitions = nil
	u := sys.U
	mt, _ := u.Enum("MiniMT")
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(k string, pid int) Msg { return Msg{expr.EnumValOf(mt, k), expr.PIDVal(pid)} }
	a := r.Initial()
	r.SetPending(a, 0, 0, mk("A", 0), mk("B", 1))
	b := r.Initial()
	r.SetPending(b, 0, 0, mk("B", 1), mk("A", 0))
	if r.Encode(a) == r.Encode(b) {
		t.Error("ordered queues with different orders must encode differently")
	}
}

// TestPendingCountAbove255: a slot's message count lives in the packed
// state itself, so it must survive counts that do not fit a byte, keep
// the slots after it readable, and keep every count's key distinct.
func TestPendingCountAbove255(t *testing.T) {
	sys, dir, _, _, _ := miniSystem(t)
	dir.Transitions = nil
	mt, _ := sys.U.Enum("MiniMT")
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	msgs := func(n int) []Msg {
		out := make([]Msg, n)
		for i := range out {
			out[i] = Msg{expr.EnumVal(mt, i%2), expr.PIDVal(i % 3)}
		}
		return out
	}
	keys := map[string]int{}
	for _, n := range []int{0, 1, 44, 127, 128, 255, 256, 300} {
		st := r.Initial()
		r.SetPending(st, 0, 0, msgs(n)...) // ordered
		r.SetPending(st, 1, 1, msgs(n)...) // unordered, by-field
		r.SetPending(st, 1, 2, msgs(1)...)
		if len(r.Pending(st, 0)[0]) != n {
			t.Errorf("ordered slot holds %d messages, want %d", len(r.Pending(st, 0)[0]), n)
		}
		down := r.Pending(st, 1)
		if len(down[1]) != n || len(down[2]) != 1 {
			t.Errorf("by-field slots hold %d and %d messages, want %d and 1", len(down[1]), len(down[2]), n)
		}
		if n > 0 && !slices.Equal(down[1][n-1], msgs(n)[n-1]) {
			t.Errorf("last of %d messages reads %v", n, down[1][n-1])
		}
		k := r.Encode(st)
		if prev, dup := keys[k]; dup {
			t.Errorf("%d and %d pending messages share a key", prev, n)
		}
		keys[k] = n
	}
}

func TestPrimeHelpers(t *testing.T) {
	if Prime("X") != "X'" {
		t.Error("Prime")
	}
	base, primed := IsPrimed("Msg.F'")
	if !primed || base != "Msg.F" {
		t.Errorf("IsPrimed: %s %v", base, primed)
	}
	if _, primed := IsPrimed("X"); primed {
		t.Error("unprimed misdetected")
	}
}

func TestBlockAndGroupKeys(t *testing.T) {
	sys, _, _, up, down := miniSystem(t)
	_ = sys
	ev := Event{Net: up, MsgVar: "Msg"}
	a := &Snippet{From: "D", Event: ev, To: "D",
		Sends: []SendSpec{{Net: down, MsgVar: "R"}}}
	b := &Snippet{From: "D", Event: ev, To: "D",
		Sends: []SendSpec{{Net: down, MsgVar: "R"}}}
	c := &Snippet{From: "D", Event: ev, To: "D",
		Sends: []SendSpec{{Net: down, MsgVar: "P"}}}
	d := &Snippet{From: "D", Event: ev, To: "D"}
	if a.BlockKey() != b.BlockKey() {
		t.Error("identical headers must share a block")
	}
	if a.BlockKey() == c.BlockKey() {
		t.Error("different output-event names are different blocks")
	}
	if a.BlockKey() == d.BlockKey() {
		t.Error("different send sets are different blocks")
	}
	if a.GroupKey() != c.GroupKey() || a.GroupKey() != d.GroupKey() {
		t.Error("same (state, event) must share a group")
	}
}

func TestSnippetValidation(t *testing.T) {
	sys, dir, _, up, down := miniSystem(t)
	u := sys.U
	mt, _ := u.Enum("MiniMT")
	ev := Event{Net: up, MsgVar: "Msg"}
	sharersP := expr.V(Prime("Sharers"), expr.SetType)
	cases := []struct {
		name string
		sn   *Snippet
	}{
		{"unknown from", &Snippet{From: "Z", Event: ev, To: "D"}},
		{"unknown to", &Snippet{From: "D", Event: ev, To: "Z"}},
		{"defer with cases", &Snippet{From: "D", Event: ev, Defer: true,
			Cases: []SnippetCase{{}}}},
		{"primed in guard", &Snippet{From: "D", Event: ev, To: "D",
			Guard: expr.Eq(sharersP, sharersP)}},
		{"unknown post target", &Snippet{From: "D", Event: ev, To: "D",
			Cases: []SnippetCase{{Posts: []Post{
				{Target: "Nope", Constraint: expr.True()}}}}}},
		{"foreign primed var", &Snippet{From: "D", Event: ev, To: "D",
			Sends: []SendSpec{{Net: down, MsgVar: "R"}},
			Cases: []SnippetCase{{Posts: []Post{
				{Target: "R.K", Constraint: expr.Eq(sharersP, sharersP)}}}}}},
		{"out of scope pre", &Snippet{From: "D", Event: ev, To: "D",
			Cases: []SnippetCase{{Pre: expr.Eq(expr.V("Ghost", expr.IntType), expr.IntC(u, 0))}}}},
		{"non-bool post", &Snippet{From: "D", Event: ev, To: "D",
			Cases: []SnippetCase{{Posts: []Post{
				{Target: "Sharers", Constraint: expr.Card(sharersP)}}}}}},
	}
	for _, c := range cases {
		c.sn.Process = "Dir"
		if err := c.sn.Validate(sys, dir); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	// A valid snippet passes.
	ok := &Snippet{Process: "Dir", From: "D", Event: ev, To: "D",
		Sends: []SendSpec{{Net: down, MsgVar: "R"}},
		Cases: []SnippetCase{{
			Pre: expr.Eq(expr.V("Msg.K", expr.EnumOf(mt)), expr.EnumC(mt, "A")),
			Posts: []Post{
				EqPost("Sharers", expr.SetAdd(expr.V("Sharers", expr.SetType), expr.V("Msg.From", expr.PIDType))),
				EqPost("R.K", expr.EnumC(mt, "B")),
				EqPost("R.Dest", expr.V("Msg.From", expr.PIDType)),
			},
		}},
	}
	if err := ok.Validate(sys, dir); err != nil {
		t.Errorf("valid snippet rejected: %v", err)
	}
}

func TestScopeVarsOrder(t *testing.T) {
	sys, dir, _, up, _ := miniSystem(t)
	vars := sys.ScopeVars(dir, Event{Net: up, MsgVar: "In"})
	var names []string
	for _, v := range vars {
		names = append(names, v.Name)
	}
	want := []string{"Sharers", SelfVar, "In.K", "In.From"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("scope order = %v, want %v", names, want)
	}
}

func TestInstanceNaming(t *testing.T) {
	sys, _, _, _, _ := miniSystem(t)
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts[0].Name() != "Dir" {
		t.Errorf("singleton name %s", r.Insts[0].Name())
	}
	if r.Insts[1].Name() != "Cache0" || r.Insts[3].Name() != "Cache2" {
		t.Errorf("replicated names %s %s", r.Insts[1].Name(), r.Insts[3].Name())
	}
}

func TestEventStringsAndKinds(t *testing.T) {
	_, _, _, up, _ := miniSystem(t)
	msgEv := Event{Net: up, MsgVar: "M"}
	trigEv := Event{Trigger: "Go"}
	if msgEv.IsTrigger() || !trigEv.IsTrigger() {
		t.Error("IsTrigger")
	}
	if msgEv.String() != "Up M" || trigEv.String() != "Go" {
		t.Errorf("event strings: %q %q", msgEv.String(), trigEv.String())
	}
	if msgEv.Key() == trigEv.Key() {
		t.Error("keys must differ")
	}
	if Ordered.String() != "ordered" || Unordered.String() != "unordered" {
		t.Error("NetKind strings")
	}
}

func TestFormatHelpers(t *testing.T) {
	sys, dir, _, up, _ := miniSystem(t)
	u := sys.U
	mt, _ := u.Enum("MiniMT")
	dir.Transitions = []*Transition{{
		From: "D", Event: Event{Net: up, MsgVar: "In"}, To: "D",
	}}
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Initial()
	msg := Msg{expr.EnumValOf(mt, "A"), expr.PIDVal(1)}
	if got := r.FormatMsg(up, msg); got != "{K:A, From:C1}" {
		t.Errorf("FormatMsg = %q", got)
	}
	stStr := r.FormatState(st)
	for _, want := range []string{"Dir{D", "Sharers={C0, C2}", "Cache0{X}"} {
		if !strings.Contains(stStr, want) {
			t.Errorf("FormatState missing %q: %s", want, stStr)
		}
	}
	r.SetPending(st, 0, 0, msg)
	acts, _ := r.Actions(st)
	if len(acts) != 1 {
		t.Fatalf("acts = %d", len(acts))
	}
	actStr := r.FormatAction(acts[0])
	if !strings.Contains(actStr, "Dir") || !strings.Contains(actStr, "recv Up") {
		t.Errorf("FormatAction = %q", actStr)
	}
}
