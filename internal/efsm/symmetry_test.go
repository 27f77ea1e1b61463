package efsm

import (
	"testing"

	"transit/internal/expr"
)

// symSystem builds a PID-symmetric 3-cache token system with real
// transitions: clients request a token from a singleton server that
// records the owner PID and answers on a by-field net. The server's Owner
// variable starts at ZeroOf(PID) = C0, an asymmetric *initial value* —
// deliberately, since symmetry reduction only needs the transition
// relation to be symmetric.
func symSystem(t *testing.T) (*System, *Runtime) {
	t.Helper()
	u := expr.NewUniverse(3)
	mt := u.MustDeclareEnum("SymMT", "Req", "Grant")
	client := &ProcDef{
		Name:       "Client",
		States:     u.MustDeclareEnum("SymClientSt", "I", "W", "H"),
		Init:       "I",
		Replicated: true,
		Triggers:   []string{"Go"},
	}
	server := &ProcDef{
		Name:   "Server",
		States: u.MustDeclareEnum("SymServerSt", "S"),
		Init:   "S",
		Vars: []*expr.Var{
			expr.V("Owner", expr.PIDType),
			expr.V("Seen", expr.SetType),
		},
	}
	up := &Network{
		Name: "Up", Kind: Unordered, Receiver: server, Route: RouteStatic,
		Msg: &MessageType{Name: "UpM", Fields: []Field{
			{Name: "K", T: expr.EnumOf(mt)},
			{Name: "From", T: expr.PIDType},
		}},
	}
	down := &Network{
		Name: "Down", Kind: Ordered, Receiver: client, Route: RouteByField, DestField: "Dest",
		Msg: &MessageType{Name: "DownM", Fields: []Field{
			{Name: "K", T: expr.EnumOf(mt)},
			{Name: "Dest", T: expr.PIDType},
		}},
	}
	client.Transitions = []*Transition{
		{
			From: "I", Event: Event{Trigger: "Go"}, To: "W",
			Sends: []Send{{Net: up, MsgVar: "Out", Fields: []SendField{
				{Field: "K", Rhs: expr.EnumC(mt, "Req")},
				{Field: "From", Rhs: expr.V(SelfVar, expr.PIDType)},
			}}},
		},
		{
			From: "W", Event: Event{Net: down, MsgVar: "In"},
			Guard: expr.Eq(expr.V("In.K", expr.EnumOf(mt)), expr.EnumC(mt, "Grant")),
			To:    "H",
		},
	}
	server.Transitions = []*Transition{{
		From: "S", Event: Event{Net: up, MsgVar: "In"}, To: "S",
		Updates: []Update{
			{Var: "Owner", Rhs: expr.V("In.From", expr.PIDType)},
			{Var: "Seen", Rhs: expr.SetAdd(expr.V("Seen", expr.SetType), expr.V("In.From", expr.PIDType))},
		},
		Sends: []Send{{Net: down, MsgVar: "Out", Fields: []SendField{
			{Field: "K", Rhs: expr.EnumC(mt, "Grant")},
			{Field: "Dest", Rhs: expr.V("In.From", expr.PIDType)},
		}}},
	}}
	sys := &System{Name: "sym", U: u, Networks: []*Network{up, down}, Defs: []*ProcDef{server, client}}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, r
}

// reachable collects up to max states by exhaustive BFS.
func reachable(t *testing.T, r *Runtime, max int) []*State {
	t.Helper()
	seen := map[string]bool{}
	init := r.Initial()
	queue := []*State{init}
	seen[r.Encode(init)] = true
	var out []*State
	for len(queue) > 0 && len(out) < max {
		st := queue[0]
		queue = queue[1:]
		out = append(out, st)
		acts, probs := r.Actions(st)
		if len(probs) > 0 {
			t.Fatalf("semantics problem: %v", probs[0])
		}
		for _, a := range acts {
			next := r.Apply(st, a)
			k := r.Encode(next)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	return out
}

// permImage is the key image of st under pi, written in one pass.
func permImage(r *Runtime, st *State, pi Perm) string {
	return string(r.appendImage(nil, st.v, r.refsFor(st.v, nil), pi, pi.Inverse(), true))
}

func allPerms3() []Perm {
	return []Perm{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
}

func TestPermHelpers(t *testing.T) {
	p := Perm{1, 2, 0}
	if p.IsIdentity() {
		t.Error("p is not the identity")
	}
	if !IdentityPerm(3).IsIdentity() || !Perm(nil).IsIdentity() {
		t.Error("identity not recognized")
	}
	inv := p.Inverse()
	if !p.Compose(inv).IsIdentity() || !inv.Compose(p).IsIdentity() {
		t.Errorf("inverse round-trip failed: %v %v", p.Compose(inv), inv.Compose(p))
	}
	q := Perm{2, 1, 0}
	pq := p.Compose(q)
	for x := 0; x < 3; x++ {
		if pq[x] != p[q[x]] {
			t.Errorf("compose order wrong at %d", x)
		}
	}
	if p.Compose(nil)[1] != 2 || Perm(nil).Compose(p)[1] != 2 {
		t.Error("nil operands must act as identity")
	}
}

func TestPermuteValue(t *testing.T) {
	pi := Perm{1, 2, 0}
	if permuteValue(expr.PIDVal(0), pi).PID() != 1 {
		t.Error("PID not mapped")
	}
	if got := permuteValue(expr.SetOf(0, 2), pi).Set(); got != 0b011 {
		t.Errorf("set {C0,C2} should map to {C1,C0}, got %b", got)
	}
	v := expr.BoolVal(true)
	if permuteValue(v, pi) != v {
		t.Error("non-PID values must be fixed")
	}
}

// TestIdentityEncodingMatchesEncode pins the core byte-format contract:
// the canonicalizer's image writer under the identity permutation
// reproduces Runtime.Encode exactly, on every reachable state.
func TestIdentityEncodingMatchesEncode(t *testing.T) {
	_, r := symSystem(t)
	id := IdentityPerm(3)
	for _, st := range reachable(t, r, 200) {
		got := permImage(r, st, id)
		if got != r.Encode(st) {
			t.Fatalf("identity encoding diverges from Encode:\n got %q\nwant %q", got, r.Encode(st))
		}
	}
}

// TestPermEncodingMatchesPermute pins that the permuted image the
// canonicalizer writes equals encoding the materialized permuted state,
// for every permutation.
func TestPermEncodingMatchesPermute(t *testing.T) {
	_, r := symSystem(t)
	for _, st := range reachable(t, r, 100) {
		for _, pi := range allPerms3() {
			got := permImage(r, st, pi)
			want := r.Encode(r.Permute(st, pi))
			if got != want {
				t.Fatalf("perm %v: encoding diverges:\n got %q\nwant %q", pi, got, want)
			}
		}
	}
}

// TestApplyPermuteCommute is the soundness core: permuting then applying
// the permuted action lands in the same state as applying then permuting.
func TestApplyPermuteCommute(t *testing.T) {
	_, r := symSystem(t)
	for _, st := range reachable(t, r, 100) {
		acts, _ := r.Actions(st)
		for _, a := range acts {
			for _, pi := range allPerms3() {
				left := r.Encode(r.Permute(r.Apply(st, a), pi))
				right := r.Encode(r.Apply(r.Permute(st, pi), r.PermuteAction(a, pi)))
				if left != right {
					t.Fatalf("perm %v action %s: Apply/Permute do not commute", pi, r.FormatAction(a))
				}
			}
		}
	}
}

// TestCanonicalizeOrbitInvariant: every member of a state's orbit
// canonicalizes to the same key, sigma actually witnesses the key, and
// the orbit size matches the count of distinct permuted encodings.
func TestCanonicalizeOrbitInvariant(t *testing.T) {
	_, r := symSystem(t)
	g, err := NewSymGroup(r)
	if err != nil {
		t.Fatal(err)
	}
	enc := g.Encoder()
	for _, st := range reachable(t, r, 100) {
		key, sigma, orbit := enc.Canonicalize(st)
		if got := r.Encode(r.Permute(st, sigma)); got != key {
			t.Fatalf("sigma does not witness the canonical key:\n got %q\nwant %q", got, key)
		}
		distinct := map[string]bool{}
		for _, pi := range allPerms3() {
			distinct[r.Encode(r.Permute(st, pi))] = true
			k2, _, o2 := enc.Canonicalize(r.Permute(st, pi))
			if k2 != key {
				t.Fatalf("orbit member canonicalizes differently: %q vs %q", k2, key)
			}
			if o2 != orbit {
				t.Fatalf("orbit size differs across members: %d vs %d", o2, orbit)
			}
		}
		if len(distinct) != orbit {
			t.Fatalf("orbit size %d, but %d distinct permuted encodings", orbit, len(distinct))
		}
	}
}

func TestInitialOrbitSize(t *testing.T) {
	_, r := symSystem(t)
	g, err := NewSymGroup(r)
	if err != nil {
		t.Fatal(err)
	}
	// The initial state is symmetric except Owner = C0 (ZeroOf), whose
	// stabilizer is the 2! permutations fixing PID 0, so the orbit is 3.
	_, _, orbit := g.Encoder().Canonicalize(r.Initial())
	if orbit != 3 {
		t.Errorf("initial orbit size = %d, want 3", orbit)
	}
}

func TestPIDSymmetricAccepts(t *testing.T) {
	sys, _ := symSystem(t)
	if err := sys.PIDSymmetric(); err != nil {
		t.Errorf("symmetric system rejected: %v", err)
	}
}

func TestPIDSymmetricRejections(t *testing.T) {
	u3 := expr.NewUniverse(3)
	cases := []struct {
		name   string
		mutate func(sys *System, client *ProcDef)
	}{
		{"pid const guard", func(sys *System, client *ProcDef) {
			client.Transitions[0].Guard = expr.Eq(
				expr.V(SelfVar, expr.PIDType), expr.NewConst(expr.PIDVal(1)))
		}},
		{"pid literal func guard", func(sys *System, client *ProcDef) {
			client.Transitions[0].Guard = expr.Eq(
				expr.V(SelfVar, expr.PIDType), expr.NewApply(expr.PIDLitFn(2)))
		}},
		{"partial set const update", func(sys *System, client *ProcDef) {
			srv := sys.Defs[0]
			srv.Transitions[0].Updates[1].Rhs = expr.NewConst(expr.SetOf(0, 1))
		}},
		{"pid const send field", func(sys *System, client *ProcDef) {
			srv := sys.Defs[0]
			srv.Transitions[0].Sends[0].Fields[1].Rhs = expr.NewConst(expr.PIDVal(0))
		}},
		{"asymmetric opt-out", func(sys *System, client *ProcDef) {
			client.Asymmetric = true
		}},
		{"singleton Self", func(sys *System, client *ProcDef) {
			sys.Defs[0].Transitions[0].Guard = expr.Eq(
				expr.V(SelfVar, expr.PIDType), expr.V("In.From", expr.PIDType))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, _ := symSystem(t)
			tc.mutate(sys, sys.Defs[1])
			if err := sys.PIDSymmetric(); err == nil {
				t.Error("expected symmetry rejection")
			}
		})
	}
	t.Run("full and empty set literals pass", func(t *testing.T) {
		sys, _ := symSystem(t)
		srv := sys.Defs[0]
		srv.Transitions[0].Updates[1].Rhs = expr.NewConst(expr.SetVal(u3.SetMask()))
		if err := sys.PIDSymmetric(); err != nil {
			t.Errorf("full-set literal must pass: %v", err)
		}
		srv.Transitions[0].Updates[1].Rhs = expr.NewConst(expr.SetVal(0))
		if err := sys.PIDSymmetric(); err != nil {
			t.Errorf("empty-set literal must pass: %v", err)
		}
	})
	t.Run("single cache", func(t *testing.T) {
		u := expr.NewUniverse(1)
		sys := &System{Name: "one", U: u, Defs: []*ProcDef{{
			Name: "P", States: u.MustDeclareEnum("OneSt", "A"), Init: "A", Replicated: true,
		}}}
		if err := sys.PIDSymmetric(); err == nil {
			t.Error("1-cache system cannot be usefully symmetric")
		}
	})
	t.Run("no replicated defs", func(t *testing.T) {
		u := expr.NewUniverse(3)
		sys := &System{Name: "solo", U: u, Defs: []*ProcDef{{
			Name: "P", States: u.MustDeclareEnum("SoloSt", "A"), Init: "A",
		}}}
		if err := sys.PIDSymmetric(); err == nil {
			t.Error("system without replicated processes has nothing to reduce")
		}
	})
}

func TestNewSymGroupCap(t *testing.T) {
	u := expr.NewUniverse(MaxSymmetryPIDs + 1)
	cl := &ProcDef{
		Name: "C", States: u.MustDeclareEnum("CapSt", "A"), Init: "A", Replicated: true,
	}
	sys := &System{Name: "cap", U: u, Defs: []*ProcDef{cl}}
	r, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSymGroup(r); err == nil {
		t.Errorf("group over %d PIDs must be rejected", MaxSymmetryPIDs+1)
	}
}

func TestSymGroupOrder(t *testing.T) {
	_, r := symSystem(t)
	g, err := NewSymGroup(r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 || g.Degree() != 3 {
		t.Fatalf("size=%d degree=%d, want 6/3", g.Size(), g.Degree())
	}
	if !g.perms[0].IsIdentity() {
		t.Error("perms[0] must be the identity")
	}
}
