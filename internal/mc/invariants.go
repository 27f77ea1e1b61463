package mc

import (
	"fmt"

	"transit/internal/efsm"
)

// Predicate wraps an arbitrary check as an Invariant.
func Predicate(name string, check func(r *efsm.Runtime, st *efsm.State) (bool, string)) Invariant {
	return Invariant{Name: name, Check: check}
}

// AtMostOne asserts that at most one instance of def occupies any of the
// given control states at a time. It panics on a state def lacks.
func AtMostOne(def *efsm.ProcDef, states ...string) Invariant {
	in := def.StateSet(states...)
	name := fmt.Sprintf("at-most-one %s in %v", def.Name, states)
	return Invariant{Name: name, Check: func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		holder := -1
		for _, idx := range r.InstancesOf(def) {
			if in[r.CtlOrd(st, idx)] {
				if holder >= 0 {
					return false, fmt.Sprintf("%s and %s both in %v",
						r.Insts[holder].Name(), r.Insts[idx].Name(), states)
				}
				holder = idx
			}
		}
		return true, ""
	}}
}

// SWMR is the single-writer/multiple-reader coherence invariant: whenever
// some instance of cacheDef is in a writer state, no other instance holds a
// valid (writer or reader) copy. It panics on a state cacheDef lacks.
func SWMR(cacheDef *efsm.ProcDef, writerStates, readerStates []string) Invariant {
	writer := cacheDef.StateSet(writerStates...)
	valid := cacheDef.StateSet(append(append([]string{}, writerStates...), readerStates...)...)
	return Invariant{Name: "SWMR", Check: func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		writerIdx := -1
		for _, idx := range r.InstancesOf(cacheDef) {
			if writer[r.CtlOrd(st, idx)] {
				writerIdx = idx
				break
			}
		}
		if writerIdx < 0 {
			return true, ""
		}
		for _, idx := range r.InstancesOf(cacheDef) {
			if idx == writerIdx {
				continue
			}
			if valid[r.CtlOrd(st, idx)] {
				return false, fmt.Sprintf("%s holds write permission (%s) while %s holds a valid copy (%s)",
					r.Insts[writerIdx].Name(), r.CtlOf(st, writerIdx),
					r.Insts[idx].Name(), r.CtlOf(st, idx))
			}
		}
		return true, ""
	}}
}
