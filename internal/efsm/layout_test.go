package efsm

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"transit/internal/expr"
)

// valueKey is the string key packed keys replaced: per instance a control
// byte and a 10-byte expr.Value encoding per variable; per slot a count
// byte and '|', then the value encodings of its messages, unordered ones
// sorted. It is the reference order Encode must reproduce.
func valueKey(r *Runtime, st *State) string {
	var b []byte
	for i, inst := range r.Insts {
		b = append(b, byte(inst.Def.States.Ord(r.CtlOf(st, i))))
		for j := range inst.Def.Vars {
			b = r.VarAt(st, i, j).AppendEncoding(b)
		}
	}
	for n, net := range r.Sys.Networks {
		for _, msgs := range r.Pending(st, n) {
			b = append(b, byte(len(msgs)), '|')
			recs := make([]string, len(msgs))
			for k, m := range msgs {
				var rec []byte
				for _, v := range m {
					rec = v.AppendEncoding(rec)
				}
				recs[k] = string(rec)
			}
			if net.Kind == Unordered {
				sort.Strings(recs)
			}
			b = append(b, strings.Join(recs, "")...)
		}
	}
	return string(b)
}

// TestKeyOrderMatchesValueEncoding pins the claim that keeps frontiers,
// predecessors and traces unchanged: on random states with fields of
// every type (multi-byte and negative Ints included), packed keys compare
// exactly as the value-encoded keys do.
func TestKeyOrderMatchesValueEncoding(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	kind := u.MustDeclareEnum("OrdK", "A", "B", "C")
	types := []expr.Type{expr.BoolType, expr.IntType, expr.PIDType, expr.SetType, expr.EnumOf(kind)}
	var vars []*expr.Var
	var fields []Field
	for i, ty := range types {
		vars = append(vars, expr.V(string(rune('a'+i)), ty))
		fields = append(fields, Field{Name: string(rune('a' + i)), T: ty})
	}
	node := &ProcDef{Name: "Node", States: u.MustDeclareEnum("OrdNodeSt", "X", "Y", "Z"), Init: "X",
		Replicated: true, Vars: vars}
	hub := &ProcDef{Name: "Hub", States: u.MustDeclareEnum("OrdHubSt", "H", "K"), Init: "H", Vars: vars}
	msg := &MessageType{Name: "OrdM", Fields: fields}
	nets := []*Network{
		{Name: "Bag", Kind: Unordered, Msg: msg, Receiver: hub, Route: RouteStatic},
		{Name: "Fifo", Kind: Ordered, Msg: msg, Receiver: node, Route: RouteByField, DestField: "c"},
	}
	r, err := NewRuntime(&System{Name: "order", U: u, Networks: nets, Defs: []*ProcDef{hub, node}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pick := func(n int) int { return rng.Intn(n) }
	var states []*State
	for k := 0; k < 300; k++ {
		st := r.Initial()
		for i, inst := range r.Insts {
			// Few distinct values per field, so many pairs tie on a prefix.
			if pick(2) == 0 {
				r.SetCtl(st, i, inst.Def.States.Values[pick(len(inst.Def.States.Values))])
			}
			for _, v := range vars {
				if pick(3) == 0 {
					r.SetVar(st, i, v.Name, expr.RandomValue(u, rng, v.VT))
				}
			}
		}
		for n := range nets {
			for slot := range r.Pending(st, n) {
				msgs := make([]Msg, pick(3))
				for m := range msgs {
					for _, f := range fields {
						msgs[m] = append(msgs[m], expr.RandomValue(u, rng, f.T))
					}
				}
				r.SetPending(st, n, slot, msgs...)
			}
		}
		states = append(states, st)
	}
	keys, ref := make([]string, len(states)), make([]string, len(states))
	for i, st := range states {
		keys[i], ref[i] = r.Encode(st), valueKey(r, st)
	}
	for i := range states {
		for j := range states {
			if got, want := strings.Compare(keys[i], keys[j]), strings.Compare(ref[i], ref[j]); got != want {
				t.Fatalf("packed keys compare %d, value keys %d:\n%s\n%s", got, want,
					r.FormatState(states[i]), r.FormatState(states[j]))
			}
		}
	}
}
