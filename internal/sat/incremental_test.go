package sat

import (
	"math/rand"
	"testing"
)

func TestSolveAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	if st := s.Solve(MkLit(a, true)); st != Sat {
		t.Fatalf("a∨b under ¬a: %v", st)
	}
	if s.ValueOf(a) || !s.ValueOf(b) {
		t.Errorf("model a=%v b=%v, want false,true", s.ValueOf(a), s.ValueOf(b))
	}
	if st := s.Solve(MkLit(a, true), MkLit(b, true)); st != Unsat {
		t.Fatalf("a∨b under ¬a,¬b: %v", st)
	}
	// The solver stays usable without the assumptions.
	if st := s.Solve(); st != Sat {
		t.Fatal("a∨b without assumptions should be sat again")
	}
}

// TestFailedAssumptionCore assumes two conflicting literals among
// irrelevant ones: the call is Unsat, and dropping either of the two,
// with the irrelevant assumptions kept, restores satisfiability.
func TestFailedAssumptionCore(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true)) // ¬a ∨ ¬b
	st := s.Solve(MkLit(c, false), MkLit(a, false), MkLit(d, false), MkLit(b, false))
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
	for _, kept := range []int{a, b} {
		if st := s.Solve(MkLit(c, false), MkLit(kept, false), MkLit(d, false)); st != Sat {
			t.Fatalf("under c, %d, d: %v", kept, st)
		}
		if !s.ValueOf(c) || !s.ValueOf(kept) || !s.ValueOf(d) {
			t.Errorf("model c=%v %d=%v d=%v, want all true", s.ValueOf(c), kept, s.ValueOf(kept), s.ValueOf(d))
		}
	}
}

func TestAssumptionFalsifiedAtLevelZero(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, true)) // unit ¬a
	if st := s.Solve(MkLit(a, false)); st != Unsat {
		t.Fatal("assuming a against unit ¬a must be unsat")
	}
	// The database itself is still satisfiable, and the solver must
	// still say so.
	if st := s.Solve(); st != Sat || s.ValueOf(a) {
		t.Fatalf("after the failed assumption: status %v a=%v, want Sat with a false", st, s.ValueOf(a))
	}
}

// TestActivationLiteralRetraction exercises the clause-retraction idiom the
// SMT session layer builds on: guard a clause group with an activation
// literal, enable it via an assumption, and retract it with a unit clause.
func TestActivationLiteralRetraction(t *testing.T) {
	s := New()
	x := s.NewVar()
	act1, act2 := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(act1, true), MkLit(x, false)) // act1 → x
	s.AddClause(MkLit(act2, true), MkLit(x, true))  // act2 → ¬x

	if st := s.Solve(MkLit(act1, false)); st != Sat || !s.ValueOf(x) {
		t.Fatalf("under act1: status %v x=%v", st, s.ValueOf(x))
	}
	if st := s.Solve(MkLit(act2, false)); st != Sat || s.ValueOf(x) {
		t.Fatalf("under act2: status %v x=%v", st, s.ValueOf(x))
	}
	if st := s.Solve(MkLit(act1, false), MkLit(act2, false)); st != Unsat {
		t.Fatal("both groups active must conflict")
	}
	// Retract group 1 permanently (its activation literal is forced off
	// and must no longer be assumed); group 2 alone still works.
	s.AddClause(MkLit(act1, true))
	if st := s.Solve(MkLit(act2, false)); st != Sat || s.ValueOf(x) {
		t.Fatalf("after retracting group 1: status %v x=%v", st, s.ValueOf(x))
	}
	// Assuming a retracted group is now a contradiction by construction.
	if st := s.Solve(MkLit(act1, false), MkLit(act2, false)); st != Unsat {
		t.Fatal("assuming a retracted activation literal must be unsat")
	}
}

func TestPerCallConflictBudget(t *testing.T) {
	// A reused solver whose cumulative conflict count exceeds MaxConflicts
	// must still get a fresh budget on each call.
	s := New()
	const n = 9
	hole := func(p, h int) Lit { return MkLit(p*(n-1)+h, false) }
	for p := 0; p < n*(n-1); p++ {
		s.NewVar()
	}
	for p := 0; p < n; p++ {
		var c []Lit
		for h := 0; h < n-1; h++ {
			c = append(c, hole(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < n-1; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(hole(p1, h).Not(), hole(p2, h).Not())
			}
		}
	}
	s.MaxConflicts = 20
	if st := s.Solve(); st != Unknown {
		t.Skipf("pigeonhole solved within 20 conflicts (%v); budget not exercised", st)
	}
	burned := s.Stats.Conflicts
	if burned < 20 {
		t.Fatalf("expected ≥20 conflicts, got %d", burned)
	}
	// Second call: if the budget were checked against the cumulative
	// counter it would return Unknown after 0 new conflicts.
	if st := s.Solve(); st != Unknown {
		t.Skipf("second call solved: %v", st)
	}
	if got := s.Stats.Conflicts - burned; got < 20 {
		t.Errorf("second call burned only %d conflicts; budget not per-call", got)
	}
}

// TestDifferentialIncrementalVsOneShot is the sat-level differential fuzz:
// random CNFs solved (a) one-shot with assumption units added as clauses
// and (b) via a single reused solver with assumptions, must agree on
// status; incremental models must satisfy clauses and assumptions, and
// after an Unsat the reused solver must still decide the CNF alone.
func TestDifferentialIncrementalVsOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(20130616)) // seed-pinned for CI
	inc := New()
	const numVars = 10
	for i := 0; i < numVars; i++ {
		inc.NewVar()
	}
	var clauses [][]Lit
	for trial := 0; trial < 120; trial++ {
		// Grow the shared incremental solver's clause database a little
		// each round, then query it under random assumptions.
		for i := 0; i < 1+rng.Intn(2); i++ {
			width := 2 + rng.Intn(3)
			var c []Lit
			for len(c) < width {
				c = append(c, MkLit(rng.Intn(numVars), rng.Intn(2) == 0))
			}
			clauses = append(clauses, c)
			inc.AddClause(c...)
		}
		var assumps []Lit
		seen := map[int]bool{}
		for i := 0; i < rng.Intn(4); i++ {
			v := rng.Intn(numVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			assumps = append(assumps, MkLit(v, rng.Intn(2) == 0))
		}

		one := New()
		for i := 0; i < numVars; i++ {
			one.NewVar()
		}
		oneOK := true
		for _, c := range clauses {
			oneOK = one.AddClause(c...) && oneOK
		}
		for _, l := range assumps {
			oneOK = one.AddClause(l) && oneOK
		}
		oneSt := Unsat
		if oneOK {
			oneSt = one.Solve()
		}

		incSt := inc.Solve(assumps...)
		if (incSt == Sat) != (oneSt == Sat) {
			t.Fatalf("trial %d: incremental=%v one-shot=%v (assumps %v)", trial, incSt, oneSt, assumps)
		}
		if incSt == Sat {
			if !modelSatisfies(inc, clauses) {
				t.Fatalf("trial %d: incremental model violates clauses", trial)
			}
			for _, l := range assumps {
				if inc.ValueOf(l.Var()) == l.Neg() {
					t.Fatalf("trial %d: incremental model violates assumption %v", trial, l)
				}
			}
		} else if st := inc.Solve(); (st == Sat) != satisfiable(numVars, clauses) {
			// An assumption Unsat must leave the solver usable: without
			// the assumptions it must agree with a fresh solver again.
			t.Fatalf("trial %d: after an assumption Unsat the solver answers %v without assumptions", trial, st)
		}
	}
}

// satisfiable solves clauses over numVars variables on a fresh solver.
func satisfiable(numVars int, clauses [][]Lit) bool {
	s := New()
	for i := 0; i < numVars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	return s.Solve() == Sat
}
