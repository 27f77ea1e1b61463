package mc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"transit/internal/efsm"
	"transit/internal/expr"
)

// FuzzCheckSymmetry holds the symmetry-reduced search to the plain one,
// an oracle that shares no code with the canonicalizer. Each input builds
// the token or the grant fixture at 2-4 caches, with the token's bug
// flags, an initial owner (or no Owner variable at all), deadlock
// checking, and optionally one transition's guard replaced by a random
// expression over its scope; inputs PIDSymmetric rejects are skipped. Each
// system is checked plain and reduced, at 1 worker and at 2-3, and:
//   - whole Results (wall clock zeroed) agree across worker counts in
//     both modes;
//   - plain and reduced agree on OK, on the violation kind and on the
//     trace length;
//   - every step of the reduced trace applies an enabled action of the
//     previous original-PID state and reaches the printed state;
//   - when both complete, the reduced run's orbit sum covers the plain
//     count, and equals it when the initial state's orbit is 1 (a
//     symmetric initial state has a permutation-closed reachable set).
func FuzzCheckSymmetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, fixture, bugs, caches, owner, guard uint8) {
		n := 2 + int(caches%3)
		own := int(owner) % (n + 1)
		if own == n {
			own = -1
		}
		var sys *efsm.System
		var client *efsm.ProcDef
		if fixture%2 == 0 {
			sys, client, _ = tokenSystem(t, tokenOpts{grantWhileBusy: bugs&1 != 0,
				dropRelease: bugs&2 != 0, overlapGuards: bugs&4 != 0, noDone: bugs&8 != 0,
				caches: n, owner: own})
		} else {
			sys, client = grantSystem(t, n, own)
		}
		if guard%4 != 0 && !randomGuard(sys, rand.New(rand.NewSource(seed)), guard) {
			return
		}
		if sys.PIDSymmetric() != nil {
			return
		}
		r := mustRuntime(t, sys)
		invs := []Invariant{AtMostOne(client, "Holding")}
		many := 2 + int(bugs>>5)%2
		run := func(sym bool) *Result {
			var base *Result
			var baseErr error
			for _, w := range []int{1, many} {
				res, err := Check(r, invs, Options{CheckDeadlock: bugs&16 != 0, Workers: w,
					SymmetryReduction: sym, MaxStates: 200_000})
				normalize(res)
				if base == nil {
					base, baseErr = res, err
					continue
				}
				if (err == nil) != (baseErr == nil) || err != nil && err.Error() != baseErr.Error() {
					t.Fatalf("symmetry=%v: workers=%d error %v, workers=1 error %v", sym, w, err, baseErr)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("symmetry=%v: workers=%d diverges from workers=1:\n  base: %+v\n  got:  %+v",
						sym, w, base, res)
				}
			}
			return base
		}
		plain, red := run(false), run(true)
		if !red.SymmetryApplied {
			t.Fatal("reduction did not apply to a PID-symmetric system")
		}
		cut := func(res *Result) bool { return !res.Complete && res.Violation == nil }
		if cut(plain) || cut(red) {
			// A budget cut leaves nothing to compare.
			return
		}
		if plain.OK != red.OK {
			t.Fatalf("verdicts disagree: plain ok=%v, reduced ok=%v", plain.OK, red.OK)
		}
		if (plain.Violation == nil) != (red.Violation == nil) {
			t.Fatalf("violations disagree: plain %v, reduced %v", plain.Violation, red.Violation)
		}
		if v := red.Violation; v != nil {
			if pv := plain.Violation; pv.Kind != v.Kind || len(pv.Trace) != len(v.Trace) {
				t.Fatalf("plain %v with %d steps, reduced %v with %d steps",
					pv.Kind, len(pv.Trace), v.Kind, len(v.Trace))
			}
			checkReplay(t, r, v)
		}
		if !plain.Complete || !red.Complete {
			return
		}
		covered := math.Round(float64(red.States) * red.ReductionFactor)
		g, err := efsm.NewSymGroup(r)
		if err != nil {
			t.Fatal(err)
		}
		_, _, orbit := g.Encoder().Canonicalize(r.Initial())
		if orbit == 1 && int(covered) != plain.States || covered < float64(plain.States) {
			t.Fatalf("reduced %d states x %.4f = %.0f, plain %d states (initial orbit %d)",
				red.States, red.ReductionFactor, covered, plain.States, orbit)
		}
	})
}

// randomGuard replaces the guard of one transition of sys, picked by pick,
// with a random Boolean expression of size 1-4 over its scope. PID
// literals are in the vocabulary when pick's top bit is set. It reports
// false when no such expression exists.
func randomGuard(sys *efsm.System, rng *rand.Rand, pick uint8) bool {
	var all []*efsm.Transition
	var defs []*efsm.ProcDef
	for _, d := range sys.Defs {
		for _, tr := range d.Transitions {
			all = append(all, tr)
			defs = append(defs, d)
		}
	}
	i := rng.Intn(len(all))
	var enums []*expr.EnumType
	for _, v := range sys.ScopeVars(defs[i], all[i].Event) {
		if v.VT.Kind == expr.KindEnum {
			enums = append(enums, v.VT.Enum)
		}
	}
	voc := expr.CoherenceVocabulary(sys.U, expr.CoherenceOptions{Enums: enums,
		WithEnumConstants: true, WithSetLiterals: true, WithPIDConstants: pick&0x80 != 0})
	g, err := expr.RandomExpr(sys.U, rng, voc, sys.ScopeVars(defs[i], all[i].Event),
		expr.BoolType, 1+int(pick>>2)%4)
	if err != nil {
		return false
	}
	all[i].Guard = g
	return true
}

// checkReplay checks that each step of v's trace is an action enabled at
// the previous state, in the original PID frame, and that applying it
// gives the next printed state.
func checkReplay(t *testing.T, r *efsm.Runtime, v *Violation) {
	t.Helper()
	st := r.Initial()
	if got := r.FormatState(st); got != v.Trace[0].State {
		t.Fatalf("trace starts at %q, not the initial state %q", v.Trace[0].State, got)
	}
	for i, a := range v.Actions() {
		acts, _ := r.Actions(st)
		enabled := false
		for _, b := range acts {
			if b.Inst == a.Inst && b.Trans == a.Trans && b.Net == a.Net && b.Slot == a.Slot && b.Pos == a.Pos {
				enabled = true
				break
			}
		}
		if !enabled {
			t.Fatalf("step %d: %s is not enabled at %s", i+1, r.FormatAction(a), r.FormatState(st))
		}
		st = r.Apply(st, a)
		if got := r.FormatState(st); got != v.Trace[i+1].State {
			t.Fatalf("step %d: applying %s gives %q, trace says %q", i+1, r.FormatAction(a), got, v.Trace[i+1].State)
		}
	}
}
