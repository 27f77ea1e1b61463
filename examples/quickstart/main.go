// Quickstart: infer expressions from concolic examples — the paper's
// Table 2 walk-through, plus a concrete-snippet correction in the style of
// the §2 anecdote.
package main

import (
	"fmt"
	"log"

	"transit"
)

func main() {
	u := transit.NewUniverse(3)
	voc := transit.CoherenceVocabulary(u, transit.VocabOptions{})

	// --- Part 1: max(a, b) from a purely symbolic (functional) spec.
	a := transit.NewVar("a", transit.IntType)
	b := transit.NewVar("b", transit.IntType)
	o := transit.NewVar("o", transit.IntType)
	prob := transit.Problem{U: u, Vocab: voc, Vars: []*transit.Var{a, b}, Output: o}
	spec := []transit.ConcolicExample{{
		Pre: transit.True(),
		Post: transit.And(
			transit.Ge(o, a), transit.Ge(o, b),
			transit.Or(transit.Eq(o, a), transit.Eq(o, b))),
	}}
	e, stats, err := transit.SolveConcolic(prob, spec, transit.Limits{MaxSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("max(a, b) from  true ==> o>=a & o>=b & (o=a | o=b):")
	for _, rec := range stats.Trace {
		if rec.Accepted {
			fmt.Printf("  iteration %d: %-28s accepted\n", rec.Round, rec.Candidate)
		} else {
			fmt.Printf("  iteration %d: %-28s refuted by %s\n", rec.Round, rec.Candidate, rec.Witness)
		}
	}
	fmt.Printf("  => %s   (%d CEGIS iterations, %d SMT queries)\n\n",
		transit.Pretty(e), stats.Iterations, stats.SMTQueries)

	// --- Part 2: the §2 anecdote in miniature. A superset constraint
	// underspecifies a sharer-set update; a concrete example pins the
	// intended behaviour.
	owner := transit.NewVar("Owner", transit.PIDType)
	sharers := transit.NewVar("Sharers", transit.SetType)
	sender := transit.NewVar("Sender", transit.PIDType)
	out := transit.NewVar("out", transit.SetType)
	prob2 := transit.Problem{U: u, Vocab: voc,
		Vars: []*transit.Var{owner, sharers, sender}, Output: out}

	superset := transit.ConcolicExample{
		Pre:  transit.True(),
		Post: transit.SubsetEq(transit.SetAdd(sharers, sender), out),
	}
	e1, _, err := transit.SolveConcolic(prob2, []transit.ConcolicExample{superset}, transit.Limits{MaxSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("underspecified:  out ⊇ Sharers ∪ {Sender}        => %s\n", transit.Pretty(e1))

	// The concrete correction: with Owner=C0, Sender=C1, Sharers={}, the
	// result must be exactly {C0, C1} (the previous owner stays tracked).
	fix := transit.ConcolicExample{
		Pre: transit.And(
			transit.Eq(owner, transit.PIDLit(0)), transit.Eq(sender, transit.PIDLit(1)),
			transit.Eq(sharers, transit.SetLit())),
		Post: transit.Eq(out, transit.SetLit(0, 1)),
	}
	e2, _, err := transit.SolveConcolic(prob2, []transit.ConcolicExample{superset, fix}, transit.Limits{MaxSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with the fix:    + (Owner=C0, Sender=C1, {} -> {C0,C1}) => %s\n", transit.Pretty(e2))
}
