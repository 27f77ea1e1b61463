package lang

import (
	"context"
	"os"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/synth"
)

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll("foo ==> => = != <= ! & | { } ( ) [ ] , ; : . ' 42 // comment\nbar")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.kind
	}
	want := []tokKind{tokIdent, tokImply, tokArrow, tokEq, tokNeq, tokLe, tokNot,
		tokAnd, tokOr, tokLBrace, tokRBrace, tokLParen, tokRParen, tokLBracket,
		tokRBracket, tokComma, tokSemi, tokColon, tokDot, tokPrime, tokInt,
		tokIdent, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("a == b"); err == nil {
		t.Error("'==' should be rejected")
	}
	if _, err := lexAll("a @ b"); err == nil {
		t.Error("'@' should be rejected")
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].pos.Line != 1 || toks[0].pos.Col != 1 {
		t.Errorf("first token at %v", toks[0].pos)
	}
	if toks[1].pos.Line != 2 || toks[1].pos.Col != 3 {
		t.Errorf("second token at %v", toks[1].pos)
	}
}

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseMinimal(t *testing.T) {
	f := mustParse(t, `
protocol P;
enum E { A, B }
message M { F: E; Who: PID }
network N ordered M to Q;
process Q {
    states { S1, S2 } init S1;
    var X: Int;
    transition (S1, N Msg) [Msg.F = A] => (S2) {
        [X > 0] ==> { X' = X - 1; }
    }
    transition (S2, N Msg) stall;
}
invariant atmostone Q in { S2 };
`)
	if f.Name != "P" || len(f.Enums) != 1 || len(f.Messages) != 1 ||
		len(f.Networks) != 1 || len(f.Processes) != 1 || len(f.Invariants) != 1 {
		t.Fatalf("parsed shape wrong: %+v", f)
	}
	q := f.Processes[0]
	if len(q.Transitions) != 2 || !q.Transitions[1].Stall {
		t.Fatalf("transitions wrong: %+v", q.Transitions)
	}
	tr := q.Transitions[0]
	if tr.Guard == nil || tr.To != "S2" || len(tr.Cases) != 1 {
		t.Fatalf("transition wrong: %+v", tr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                   // missing protocol
		"protocol;",                          // missing name
		"protocol P; banana x;",              // unknown decl
		"protocol P; enum E { }",             // empty enum body -> ident expected
		"protocol P; network N fast M to Q;", // bad kind
		"protocol P; invariant magic Q;",     // unknown invariant
		"protocol P; process Q { states { A } init A; transition (A, N Msg) => ; }", // bad target
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown type", `protocol P; message M { F: Wibble } network N ordered M to Q; process Q { states {A} init A; }`, "unknown type"},
		{"unknown net", `protocol P; process Q { states {A} init A; transition (A, N Msg) => (A); }`, "unknown network"},
		{"unknown trigger", `protocol P; process Q { states {A} init A; transition (A, Go) => (A); }`, "no trigger"},
		{"bad guard type", `protocol P; enum E {X} message M { F: E } network N ordered M to Q;
			process Q { states {A} init A; var V: Int; transition (A, N Msg) [V] => (A); }`, "must be Boolean"},
		{"two primed", `protocol P; enum E {X} message M { F: E } network N ordered M to Q;
			process Q { states {A} init A; var V: Int; var W: Int;
			transition (A, N Msg) => (A) { [] ==> { V' = W'; } } }`, "exactly one primed"},
		{"primed in pre", `protocol P; enum E {X} message M { F: E } network N ordered M to Q;
			process Q { states {A} init A; var V: Int;
			transition (A, N Msg) => (A) { [V' = 0] ==> { V' = 0; } } }`, "outside a post-condition"},
		{"unknown ident", `protocol P; enum E {X} message M { F: E } network N ordered M to Q;
			process Q { states {A} init A; transition (A, N Msg) [Wot = 3] => (A); }`, "unknown identifier"},
		{"pid range", `protocol P; enum E {X} message M { F: E } network N ordered M to Q;
			process Q { states {A} init A; var V: PID; transition (A, N Msg) [V = C9] => (A); }`, "out of range"},
		{"mismatched eq", `protocol P; enum E {X} message M { F: E } network N ordered M to Q;
			process Q { states {A} init A; var V: Int; var S: Set; transition (A, N Msg) [V = S] => (A); }`, "mismatched"},
		{"bad invariant state", `protocol P; process Q { states {A} init A; } invariant atmostone Q in { Z };`, "unknown state"},
	}
	for _, c := range cases {
		_, err := Build(c.src, 2)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestExpressionElaboration(t *testing.T) {
	src := `
protocol P;
enum E { A, B }
message M { F: E; Who: PID }
network N ordered M to Q;
process Q {
    states { S1 } init S1;
    var X: Int;
    var S: Set;
    var O: PID;
    transition (S1, N Msg)
        [setcontains(S, Msg.Who) & X + 1 > setsize(S) | !(Msg.F = A) & ite(X >= 0, true, false)]
        => (S1) {
        [S = {C0, Msg.Who}] ==> {
            subseteq(setadd(S, O), S');
            X' = numcaches() - 1;
        }
    }
}
`
	proto, err := Build(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	sn := proto.Snippets[0]
	if sn.Guard == nil {
		t.Fatal("guard missing")
	}
	// Evaluate the guard and posts on a sample environment.
	u := proto.Sys.U
	e, _ := u.Enum("E")
	env := expr.Env{
		"X": expr.IntVal(u, 2), "S": expr.SetOf(0, 1), "O": expr.PIDVal(2),
		"Msg.F": expr.EnumValOf(e, "B"), "Msg.Who": expr.PIDVal(1),
		efsm.SelfVar: expr.PIDVal(0),
	}
	if !sn.Guard.Eval(u, env).Bool() {
		t.Errorf("guard should hold on %v: %s", env, expr.Pretty(sn.Guard))
	}
	if len(sn.Cases) != 1 || len(sn.Cases[0].Posts) != 2 {
		t.Fatalf("cases wrong: %+v", sn.Cases)
	}
	if sn.Cases[0].Posts[0].Target != "S" || sn.Cases[0].Posts[1].Target != "X" {
		t.Errorf("post targets wrong: %+v", sn.Cases[0].Posts)
	}
	// Pre: S = {C0, Msg.Who} where Msg.Who = C1 -> true on env.
	if !sn.Cases[0].Pre.Eval(u, env).Bool() {
		t.Error("pre should hold")
	}
}

// TestVIEndToEnd builds the VI protocol from its .tr source, synthesizes,
// and model checks — and cross-checks the state count against the Go-built
// VI in internal/protocols.
func TestVIEndToEnd(t *testing.T) {
	src, err := os.ReadFile("testdata/vi.tr")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		proto, err := Build(string(src), n)
		if err != nil {
			t.Fatal(err)
		}
		if proto.Name != "VI" {
			t.Fatalf("name = %s", proto.Name)
		}
		_, err = core.CompleteCtx(context.Background(), proto.Sys, proto.Vocab, proto.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 10}})
		if err != nil {
			t.Fatalf("VI(%d) synthesis: %v", n, err)
		}
		rt, err := efsm.NewRuntime(proto.Sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.CheckCtx(context.Background(), rt, proto.Invariants, mc.Options{MaxStates: 500_000, CheckDeadlock: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("VI(%d) from .tr violates:\n%v", n, res.Violation)
		}
		want := map[int]int{2: 172, 3: 3204}[n]
		if res.States != want {
			t.Errorf("VI(%d) from .tr explores %d states; Go-built explores %d", n, res.States, want)
		}
	}
}

func TestMulticastSyntax(t *testing.T) {
	src := `
protocol P;
enum MT { Inv }
message M { T: MT; Dest: PID; From: PID }
message R { Who: PID }
network Down ordered M to C by Dest;
network Up unordered R to D;
process D {
    states { A } init A;
    var Sharers: Set;
    transition (A, Up Msg) => (A, Down Out to setminus(Sharers, setof(Msg.Who))) {
        [] ==> { Out.T' = Inv; Out.From' = Msg.Who; }
    }
}
process C replicated {
    states { B } init B;
    transition (B, Down Msg) => (B);
}
`
	proto, err := Build(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	sn := proto.Snippets[0]
	if len(sn.Sends) != 1 || sn.Sends[0].TargetSet == nil {
		t.Fatalf("multicast not captured: %+v", sn.Sends)
	}
	if sn.Sends[0].TargetSet.Type() != expr.SetType {
		t.Error("target set type wrong")
	}
}

func TestMulticastBadTargetType(t *testing.T) {
	src := `
protocol P;
enum MT { Inv }
message M { T: MT; Dest: PID }
message R { Who: PID }
network Down ordered M to C by Dest;
network Up unordered R to D;
process D {
    states { A } init A;
    transition (A, Up Msg) => (A, Down Out to Msg.Who) {
        [] ==> { Out.T' = Inv; }
    }
}
process C replicated { states { B } init B; }
`
	if _, err := Build(src, 3); err == nil || !strings.Contains(err.Error(), "Set-typed") {
		t.Errorf("expected multicast type error, got %v", err)
	}
}

// TestMSIEndToEnd builds the full MSI protocol from its .tr source and
// cross-checks the reachable state count against the Go-built MSI in
// internal/protocols (172-line golden equivalence: same protocol, two
// front-ends).
func TestMSIEndToEnd(t *testing.T) {
	src, err := os.ReadFile("testdata/msi.tr")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, wantStates int }{{2, 900}, {3, 36198}} {
		proto, err := Build(string(src), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.CompleteCtx(context.Background(), proto.Sys, proto.Vocab, proto.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}})
		if err != nil {
			t.Fatalf("MSI(%d) synthesis: %v", tc.n, err)
		}
		rt, err := efsm.NewRuntime(proto.Sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.CheckCtx(context.Background(), rt, proto.Invariants, mc.Options{MaxStates: 2_000_000, CheckDeadlock: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("MSI(%d) from .tr violates:\n%v", tc.n, res.Violation)
		}
		if res.States != tc.wantStates {
			t.Errorf("MSI(%d) from .tr explores %d states; Go-built explores %d",
				tc.n, res.States, tc.wantStates)
		}
	}
}
