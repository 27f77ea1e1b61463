package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// searchWork solves a fixed set of instances — pigeonhole refutations,
// and seeded random 3-SAT near the phase transition, each solved once
// plain and once more under random assumptions — and returns the
// solvers' summed Stats.
func searchWork() string {
	total := New().Stats
	add := func(s *Solver) {
		total.Conflicts += s.Stats.Conflicts
		total.Decisions += s.Stats.Decisions
		total.Propagations += s.Stats.Propagations
		total.Learnt += s.Stats.Learnt
		total.Restarts += s.Stats.Restarts
		total.AssumptionSolves += s.Stats.AssumptionSolves
	}
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n+1, n)
		s.Solve()
		add(s)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		numVars := 8 + rng.Intn(30)
		s := New()
		for i := 0; i < numVars; i++ {
			s.NewVar()
		}
		for i := 0; i < int(4.2*float64(numVars)); i++ {
			s.AddClause(MkLit(rng.Intn(numVars), rng.Intn(2) == 0),
				MkLit(rng.Intn(numVars), rng.Intn(2) == 0),
				MkLit(rng.Intn(numVars), rng.Intn(2) == 0))
		}
		s.Solve()
		var assumps []Lit
		for i := 0; i < rng.Intn(5); i++ {
			assumps = append(assumps, MkLit(rng.Intn(numVars), rng.Intn(2) == 0))
		}
		s.Solve(assumps...)
		add(s)
	}
	return fmt.Sprintf("%+v", total)
}

// TestSearchWorkPinned pins the search order: the clause store may change
// how clauses are kept, but not which literal is watched, propagated or
// learnt when, so every counter must stay what the solver has always
// counted on these instances.
func TestSearchWorkPinned(t *testing.T) {
	const want = "{Conflicts:2377 Decisions:3846 Propagations:30037 Learnt:2034 Restarts:6 AssumptionSolves:105}"
	if got := searchWork(); got != want {
		t.Errorf("search work\n got %s\nwant %s", got, want)
	}
}

// decodeCNF reads a CNF over 1-12 variables from fuzz bytes: the first
// byte picks the variable count, every later byte adds one literal to the
// current clause, and a byte with the high bit set also ends the clause.
func decodeCNF(data []byte) (numVars int, clauses [][]Lit) {
	if len(data) == 0 {
		return 1, nil
	}
	numVars = 1 + int(data[0]%12)
	var c []Lit
	for _, b := range data[1:] {
		c = append(c, decodeLit(b, numVars))
		if b&0x80 != 0 {
			clauses, c = append(clauses, c), nil
		}
	}
	if c != nil {
		clauses = append(clauses, c)
	}
	return numVars, clauses
}

// decodeLit reads one literal over numVars variables: bit 6 is the sign.
func decodeLit(b byte, numVars int) Lit { return MkLit(int(b&0x3f)%numVars, b&0x40 != 0) }

// load declares numVars variables on s and adds the clauses.
func load(s *Solver, numVars int, clauses [][]Lit) {
	for i := 0; i < numVars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
}

// FuzzSATVsBrute holds the solver to exhaustive enumeration. On a random
// CNF over at most 12 variables solved under random assumptions, the
// status must be brute force's, a Sat model must satisfy every clause and
// every assumption, and an Unsat the assumptions caused must leave the
// solver answering the CNF alone correctly. Then, after Reset, a second
// CNF must get exactly what a New solver gives it: status, model and
// Stats.
func FuzzSATVsBrute(f *testing.F) {
	f.Add([]byte{2, 0x00, 0x41 | 0x80, 0x01, 0x02 | 0x80}, []byte{0x40}, []byte{1, 0x80})
	f.Fuzz(func(t *testing.T, cnf, assumptions, cnf2 []byte) {
		numVars, clauses := decodeCNF(cnf)
		var assumps []Lit
		for _, b := range assumptions {
			assumps = append(assumps, decodeLit(b, numVars))
		}
		s := New()
		load(s, numVars, clauses)
		st := s.Solve(assumps...)
		withUnits := slices.Clone(clauses)
		for _, l := range assumps {
			withUnits = append(withUnits, []Lit{l})
		}
		if want := brute(numVars, withUnits); (st == Sat) != want || st == Unknown {
			t.Fatalf("clauses %v under %v: %v, brute force sat=%v", clauses, assumps, st, want)
		}
		if st == Sat && !modelSatisfies(s, withUnits) {
			t.Fatalf("clauses %v under %v: model %v violates them", clauses, assumps, s.Model())
		}
		if st == Unsat {
			// The solver stays usable: alone, the CNF gets its own answer.
			st, want := s.Solve(), brute(numVars, clauses)
			if (st == Sat) != want {
				t.Fatalf("clauses %v: %v after an Unsat under %v, brute force sat=%v", clauses, st, assumps, want)
			}
			if st == Sat && !modelSatisfies(s, clauses) {
				t.Fatalf("clauses %v: model %v violates them", clauses, s.Model())
			}
		}

		numVars2, clauses2 := decodeCNF(cnf2)
		var assumps2 []Lit
		for _, b := range assumptions {
			assumps2 = append(assumps2, decodeLit(b, numVars2))
		}
		s.Reset()
		fresh := New()
		load(s, numVars2, clauses2)
		load(fresh, numVars2, clauses2)
		if got, want := s.Solve(assumps2...), fresh.Solve(assumps2...); got != want {
			t.Fatalf("clauses %v under %v: %v after Reset, %v on a New solver", clauses2, assumps2, got, want)
		}
		if got, want := s.Model(), fresh.Model(); !slices.Equal(got, want) {
			t.Fatalf("clauses %v under %v: model %v after Reset, %v on a New solver", clauses2, assumps2, got, want)
		}
		if s.Stats != fresh.Stats {
			t.Fatalf("clauses %v under %v: stats %+v after Reset, %+v on a New solver", clauses2, assumps2, s.Stats, fresh.Stats)
		}
	})
}

// TestResetMatchesNew runs the Reset leg of FuzzSATVsBrute on solvers
// dirtied by larger searches than the fuzz target's, some stopped by a
// conflict budget, with an Interrupt set: none of it may reach the next
// search.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	for trial := 0; trial < 50; trial++ {
		load(s, 40+rng.Intn(20), nil)
		for i := 0; i < 4*s.NumVars(); i++ {
			s.AddClause(MkLit(rng.Intn(s.NumVars()), rng.Intn(2) == 0), MkLit(rng.Intn(s.NumVars()), rng.Intn(2) == 0),
				MkLit(rng.Intn(s.NumVars()), rng.Intn(2) == 0))
		}
		s.MaxConflicts = int64(1 + rng.Intn(50))
		s.Interrupt = make(chan struct{})
		s.Solve()
		s.Reset()
		if s.NumVars() != 0 || s.MaxConflicts != 0 || s.Interrupt != nil || s.Stats != New().Stats {
			t.Fatalf("trial %d: Reset left %d vars, budget %d, interrupt %v, stats %+v",
				trial, s.NumVars(), s.MaxConflicts, s.Interrupt, s.Stats)
		}
		fresh := New()
		numVars := 3 + rng.Intn(20)
		for _, sv := range []*Solver{s, fresh} {
			r := rand.New(rand.NewSource(int64(trial)))
			for i := 0; i < numVars; i++ {
				sv.NewVar()
			}
			for i := 0; i < 4*numVars; i++ {
				sv.AddClause(MkLit(r.Intn(numVars), r.Intn(2) == 0), MkLit(r.Intn(numVars), r.Intn(2) == 0),
					MkLit(r.Intn(numVars), r.Intn(2) == 0))
			}
		}
		if got, want := s.Solve(), fresh.Solve(); got != want || !slices.Equal(s.Model(), fresh.Model()) || s.Stats != fresh.Stats {
			t.Fatalf("trial %d: %v %+v after Reset, %v %+v on a New solver", trial, got, s.Stats, want, fresh.Stats)
		}
		s.Reset()
	}
}
