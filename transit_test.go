package transit_test

import (
	"reflect"
	"strings"
	"testing"

	"transit"
)

func TestFacadeSolveConcolic(t *testing.T) {
	u := transit.NewUniverse(3)
	voc := transit.CoherenceVocabulary(u, transit.VocabOptions{})
	a := transit.NewVar("a", transit.IntType)
	b := transit.NewVar("b", transit.IntType)
	o := transit.NewVar("o", transit.IntType)
	prob := transit.Problem{U: u, Vocab: voc, Vars: []*transit.Var{a, b}, Output: o}
	spec := []transit.ConcolicExample{{
		Pre: transit.True(),
		Post: transit.And(transit.Ge(o, a), transit.Ge(o, b),
			transit.Or(transit.Eq(o, a), transit.Eq(o, b))),
	}}
	e, stats, err := transit.SolveConcolic(prob, spec, transit.Limits{MaxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 || e == nil {
		t.Fatal("empty result")
	}
	// Spot-check semantics.
	env := transit.Env{"a": intVal(u, 5), "b": intVal(u, 9)}
	if got := e.Eval(u, env); got.Int() != 9 {
		t.Errorf("max(5,9) via %s = %v", e, got)
	}
}

func intVal(u *transit.Universe, x int64) transit.Value {
	return transit.IntLit(u, x).Eval(u, nil)
}

func TestFacadeCheckSatValid(t *testing.T) {
	u := transit.NewUniverse(3)
	s := transit.NewVar("s", transit.SetType)
	p := transit.NewVar("p", transit.PIDType)
	vars := []*transit.Var{s, p}
	sat, model, err := transit.CheckSat(u, vars, transit.Contains(s, p))
	if err != nil || !sat {
		t.Fatalf("sat check: %v %v", sat, err)
	}
	if !transit.Contains(s, p).Eval(u, model).Bool() {
		t.Error("model does not satisfy")
	}
	valid, _, err := transit.CheckValid(u, vars, transit.Contains(transit.SetAdd(s, p), p))
	if err != nil || !valid {
		t.Fatalf("validity check: %v %v", valid, err)
	}
}

func TestFacadeBuiltinsVerify(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto *transit.Protocol
	}{
		{"VI", transit.VI(2)},
		{"MSI", transit.MSI(2)},
		{"MESI", transit.MESI(2)},
		{"Origin", transit.Origin(2, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := transit.Synthesize(tc.proto, transit.SynthesisOptions{
				Limits: transit.Limits{MaxSize: 12},
			}); err != nil {
				t.Fatal(err)
			}
			res, err := transit.Verify(tc.proto, transit.VerifyOptions{
				MaxStates: 2_000_000, CheckDeadlock: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("violation:\n%v", res.Violation)
			}
		})
	}
}

func TestFacadeLoadProtocol(t *testing.T) {
	src := `
protocol Mini;
enum K { Hello }
message M { Kind: K; From: PID }
message R { Kind: K; Dest: PID }
network Up ordered M to Server;
network Down ordered R to Client by Dest;
process Server {
    states { S } init S;
    transition (S, Up Msg) => (S, Down Out) {
        [] ==> { Out.Kind' = Hello; Out.Dest' = Msg.From; }
    }
}
process Client replicated {
    states { Idle, Wait } init Idle;
    triggers { Go }
    transition (Idle, Go) => (Wait, Up Out) {
        [] ==> { Out.Kind' = Hello; Out.From' = Self; }
    }
    transition (Wait, Down Msg) => (Idle);
}
`
	proto, err := transit.LoadProtocol(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transit.Synthesize(proto, transit.SynthesisOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := transit.Verify(proto, transit.VerifyOptions{CheckDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("violation:\n%v", res.Violation)
	}
	if res.States < 4 {
		t.Errorf("suspiciously few states: %d", res.States)
	}
}

func TestFacadeLoadProtocolError(t *testing.T) {
	_, err := transit.LoadProtocol("protocol X; process P { states { A } init B; }", 2)
	if err == nil || !strings.Contains(err.Error(), "initial state") {
		t.Errorf("expected initial-state error, got %v", err)
	}
}

func TestFacadeOriginAnecdote(t *testing.T) {
	buggy := transit.Origin(2, false)
	if _, err := transit.Synthesize(buggy, transit.SynthesisOptions{Limits: transit.Limits{MaxSize: 12}}); err != nil {
		t.Fatal(err)
	}
	res, err := transit.Verify(buggy, transit.VerifyOptions{MaxStates: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("buggy Origin must violate")
	}
	if len(res.Violation.Trace) == 0 {
		t.Fatal("violation must carry a trace")
	}
	// The chart of the violation has one column per process instance.
	_, chart, err := transit.VerifyWithChart(buggy, transit.VerifyOptions{MaxStates: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(chart, "\n")
	if cols := strings.Fields(header); !reflect.DeepEqual(cols, []string{"Dir", "Cache0", "Cache1"}) {
		t.Errorf("buggy Origin chart columns = %q, want Dir Cache0 Cache1:\n%s", cols, chart)
	}

	// The fixed Origin verifies, and a clean run has no chart.
	fixed := transit.Origin(2, true)
	if _, err := transit.Synthesize(fixed, transit.SynthesisOptions{Limits: transit.Limits{MaxSize: 12}}); err != nil {
		t.Fatal(err)
	}
	res, chart, err = transit.VerifyWithChart(fixed, transit.VerifyOptions{MaxStates: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || chart != "" {
		t.Fatalf("fixed Origin: ok=%v chart=%q", res.OK, chart)
	}
}

func TestFacadeCaseStudies(t *testing.T) {
	for _, mk := range []func(int) transit.CaseStudy{
		transit.CaseStudyMSI, transit.CaseStudyMESI, transit.CaseStudyOrigin,
	} {
		res, err := transit.RunCaseStudy(mk(2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge", res.Name)
		}
	}
}

func TestFacadeLiterals(t *testing.T) {
	u := transit.NewUniverse(4)
	if transit.PIDLit(2).Eval(u, nil).PID() != 2 {
		t.Error("PIDLit")
	}
	if transit.SetLit(0, 3).Eval(u, nil).Set() != 0b1001 {
		t.Error("SetLit")
	}
	if transit.IntLit(u, -7).Eval(u, nil).Int() != -7 {
		t.Error("IntLit")
	}
	if !transit.BoolLit(true).Eval(u, nil).Bool() {
		t.Error("BoolLit")
	}
	e, err := u.DeclareEnum("FT", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if transit.EnumLit(e, "B").Eval(u, nil).EnumOrd() != 1 {
		t.Error("EnumLit")
	}
}
