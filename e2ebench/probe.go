package main

import (
	"time"

	"transit/internal/efsm"
	"transit/internal/mc"
)

// probeStates bounds the probe's breadth-first walk of each check row.
const probeStates = 20_000

// probeResult splits the per-state cost of model checking into the
// efsm and protocols calls the checker makes, timed one call at a time
// on a sequential walk. The checker runs the same calls with its own
// bookkeeping around them, so the probe shows where a state's cost goes;
// it does not add up to mc.self_s.
type probeResult struct {
	expanded, transitions                int
	plainTransitions, reducedTransitions int
	actions, apply, invariant            time.Duration
	encode, canonicalize                 time.Duration
}

// walk visits the first probeStates states of rt breadth-first, keyed by
// Encode on plain rows and by the symmetry group's canonical key on
// reduced ones, as the checker keys its visited set.
func (pr *probeResult) walk(rt *efsm.Runtime, invs []mc.Invariant, symmetry bool) error {
	var enc *efsm.CanonEncoder
	if symmetry {
		g, err := efsm.NewSymGroup(rt)
		if err != nil {
			return err
		}
		enc = g.Encoder()
	}
	key := func(st *efsm.State) string {
		if enc != nil {
			k, _, _ := enc.Canonicalize(st)
			return k
		}
		return rt.Encode(st)
	}
	init := rt.Initial()
	seen := map[string]bool{key(init): true}
	queue := []*efsm.State{init}
	for n := 0; n < probeStates && len(queue) > 0; n++ {
		st := queue[0]
		queue = queue[1:]
		t0 := time.Now()
		for _, inv := range invs {
			inv.Check(rt, st)
		}
		t1 := time.Now()
		acts, _ := rt.Actions(st)
		pr.invariant += t1.Sub(t0)
		pr.actions += time.Since(t1)
		pr.expanded++
		for _, a := range acts {
			t2 := time.Now()
			next := rt.Apply(st, a)
			t3 := time.Now()
			k := key(next)
			pr.apply += t3.Sub(t2)
			if enc != nil {
				pr.canonicalize += time.Since(t3)
				pr.reducedTransitions++
			} else {
				pr.encode += time.Since(t3)
				pr.plainTransitions++
			}
			pr.transitions++
			if !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// perUS is d per count in microseconds, 0 for no count.
func perUS(d time.Duration, count int) float64 {
	if count == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(count)
}
