package protocols

import (
	"context"
	"fmt"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/synth"
)

// The reference invariants below read each instance's control state as a
// string and look it up in a map, and read the directory's Owner and
// Sharers by name, so they share nothing with the built-in invariants'
// ordinal sets and variable indices. Both must give the same answer and
// the same detail on every state.

func refAtMostOne(def *efsm.ProcDef, states ...string) mc.Invariant {
	stateSet := map[string]bool{}
	for _, s := range states {
		stateSet[s] = true
	}
	name := fmt.Sprintf("at-most-one %s in %v", def.Name, states)
	return mc.Invariant{Name: name, Check: func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		holder := -1
		for _, idx := range r.InstancesOf(def) {
			if stateSet[r.CtlOf(st, idx)] {
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

func refSWMR(cacheDef *efsm.ProcDef, writerStates, readerStates []string) mc.Invariant {
	writer := map[string]bool{}
	for _, s := range writerStates {
		writer[s] = true
	}
	valid := map[string]bool{}
	for _, s := range append(append([]string{}, writerStates...), readerStates...) {
		valid[s] = true
	}
	return mc.Invariant{Name: "SWMR", Check: func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		writerIdx := -1
		for _, idx := range r.InstancesOf(cacheDef) {
			if writer[r.CtlOf(st, idx)] {
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
			if valid[r.CtlOf(st, idx)] {
				return false, fmt.Sprintf("%s holds write permission (%s) while %s holds a valid copy (%s)",
					r.Insts[writerIdx].Name(), r.CtlOf(st, writerIdx),
					r.Insts[idx].Name(), r.CtlOf(st, idx))
			}
		}
		return true, ""
	}}
}

func refDirAccuracy(name string, dir, cache *efsm.ProcDef, dirState string, cacheStates []string,
	tracked func(r *efsm.Runtime, st *efsm.State, dirIdx, cacheIdx int) bool) mc.Invariant {
	inSet := map[string]bool{}
	for _, s := range cacheStates {
		inSet[s] = true
	}
	return mc.Predicate(name, func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		dirIdx := r.InstancesOf(dir)[0]
		if r.CtlOf(st, dirIdx) != dirState {
			return true, ""
		}
		for _, idx := range r.InstancesOf(cache) {
			if inSet[r.CtlOf(st, idx)] && !tracked(r, st, dirIdx, idx) {
				return false, fmt.Sprintf("directory in %s does not track %s (in %s)",
					dirState, r.Insts[idx].Name(), r.CtlOf(st, idx))
			}
		}
		return true, ""
	})
}

func refSharers(r *efsm.Runtime, st *efsm.State, dirIdx, cacheIdx int) bool {
	return r.VarOf(st, dirIdx, "Sharers").Set()&(1<<uint(r.Insts[cacheIdx].PID)) != 0
}

func refOwner(r *efsm.Runtime, st *efsm.State, dirIdx, cacheIdx int) bool {
	return r.VarOf(st, dirIdx, "Owner").PID() == r.Insts[cacheIdx].PID
}

func refNoMUnderUnownedDir(dir, cache *efsm.ProcDef) mc.Invariant {
	return mc.Predicate("no-M-under-unowned-dir",
		func(r *efsm.Runtime, st *efsm.State) (bool, string) {
			dirIdx := r.InstancesOf(dir)[0]
			dctl := r.CtlOf(st, dirIdx)
			if dctl != "I" && dctl != "S" && dctl != "B_M" {
				return true, ""
			}
			for _, idx := range r.InstancesOf(cache) {
				if r.CtlOf(st, idx) == "M" {
					return false, r.Insts[idx].Name() + " in M while directory in " + dctl
				}
			}
			return true, ""
		})
}

func refNoWriterUnderUnownedDir(dir, cache *efsm.ProcDef) mc.Invariant {
	return mc.Predicate("no-writer-under-unowned-dir",
		func(r *efsm.Runtime, st *efsm.State) (bool, string) {
			dirIdx := r.InstancesOf(dir)[0]
			dctl := r.CtlOf(st, dirIdx)
			if dctl != "I" && dctl != "S" && dctl != "B_M" {
				return true, ""
			}
			for _, idx := range r.InstancesOf(cache) {
				if c := r.CtlOf(st, idx); c == "M" || c == "E" {
					return false, r.Insts[idx].Name() + " in " + c + " while directory in " + dctl
				}
			}
			return true, ""
		})
}

// refInvariants lists a built-in protocol's invariants in their
// name-based reference forms, in the order its Spec lists them.
func refInvariants(name string, cache, dir *efsm.ProcDef) []mc.Invariant {
	switch name {
	case "vi":
		return []mc.Invariant{
			refAtMostOne(cache, "V"),
			refDirAccuracy("dir-owner-accuracy", dir, cache, "V", []string{"V"}, refOwner),
		}
	case "msi":
		return []mc.Invariant{
			refSWMR(cache, []string{"M"}, []string{"S", "S_M"}),
			refDirAccuracy("dir-sharers-accuracy", dir, cache, "S", []string{"S", "S_M"}, refSharers),
			refDirAccuracy("dir-owner-accuracy", dir, cache, "M", []string{"M"}, refOwner),
			refNoMUnderUnownedDir(dir, cache),
		}
	case "mesi":
		return []mc.Invariant{
			refSWMR(cache, []string{"M", "E"}, []string{"S", "S_M"}),
			refDirAccuracy("dir-sharers-accuracy", dir, cache, "S", []string{"S", "S_M"}, refSharers),
			refDirAccuracy("dir-owner-accuracy-M", dir, cache, "M", []string{"M", "E"}, refOwner),
			refDirAccuracy("dir-owner-accuracy-E", dir, cache, "E", []string{"M", "E"}, refOwner),
			refNoWriterUnderUnownedDir(dir, cache),
		}
	case "origin":
		return []mc.Invariant{
			refSWMR(cache, []string{"M", "E"}, []string{"S", "S_M"}),
			refDirAccuracy("dir-sharers-accuracy", dir, cache, "SHRD", []string{"S", "S_M"}, refSharers),
			refDirAccuracy("dir-owner-accuracy", dir, cache, "EXCL", []string{"M", "E"}, refOwner),
		}
	}
	panic("no reference invariants for " + name)
}

// TestOrdinalInvariantsMatchNames holds the built-in invariants, which read
// control ordinals and resolve the directory's variables once, to their
// name-based reference forms: the same (ok, detail) on every reachable
// state of VI, MSI, MESI and Origin at 3 caches, and on copies of each
// with one instance moved to another control state or the directory's
// Owner or Sharers rewritten, where every invariant fails somewhere. An
// invariant that names a control state its definition lacks panics at
// construction.
func TestOrdinalInvariantsMatchNames(t *testing.T) {
	for _, p := range []struct {
		name string
		spec *Spec
	}{{"vi", VI(3)}, {"msi", MSI(3)}, {"mesi", MESI(3)}, {"origin", Origin(3, true)}} {
		t.Run(p.name, func(t *testing.T) {
			s := p.spec
			if _, err := core.CompleteCtx(context.Background(), s.Sys, s.Vocab, s.Snippets,
				core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
				t.Fatal(err)
			}
			r, err := efsm.NewRuntime(s.Sys)
			if err != nil {
				t.Fatal(err)
			}
			got, want := s.Invariants, refInvariants(p.name, s.Cache, s.Dir)
			if len(got) != len(want) {
				t.Fatalf("%d invariants, %d references", len(got), len(want))
			}
			fails := make([]int, len(got))
			compare := func(st *efsm.State) {
				for i := range got {
					ok, detail := got[i].Check(r, st)
					wok, wdetail := want[i].Check(r, st)
					if got[i].Name != want[i].Name || ok != wok || detail != wdetail {
						t.Fatalf("%s: %s gives (%v, %q), its reference %s (%v, %q)",
							r.FormatState(st), got[i].Name, ok, detail, want[i].Name, wok, wdetail)
					}
					if !ok {
						fails[i]++
					}
				}
			}
			// mutate calls compare on copies of the k-th state st with one
			// change each: instance k mod |instances| moved to every
			// control state, and the directory's Owner and Sharers set to
			// the k-th PID and set in turn.
			dirIdx := r.InstancesOf(s.Dir)[0]
			n := r.Sys.U.NumCaches()
			mutate := func(st *efsm.State, k int) {
				i := k % len(r.Insts)
				for _, c := range r.Insts[i].Def.States.Values {
					m := st.Clone()
					r.SetCtl(m, i, c)
					compare(m)
				}
				m := st.Clone()
				r.SetVar(m, dirIdx, "Owner", expr.PIDVal(k%n))
				compare(m)
				if s.Dir.VarIndex("Sharers") >= 0 {
					m := st.Clone()
					r.SetVar(m, dirIdx, "Sharers", expr.SetVal(uint64(k)%(1<<n)))
					compare(m)
				}
			}
			init := r.Initial()
			seen := map[string]bool{r.Encode(init): true}
			for queue, k := []*efsm.State{init}, 0; len(queue) > 0; queue, k = queue[1:], k+1 {
				st := queue[0]
				compare(st)
				mutate(st, k)
				acts, _ := r.Actions(st)
				for _, a := range acts {
					next := r.Apply(st, a)
					if k := r.Encode(next); !seen[k] {
						seen[k] = true
						queue = append(queue, next)
					}
				}
			}
			for i, f := range fails {
				if f == 0 {
					t.Errorf("%s never fails", got[i].Name)
				}
			}
			t.Logf("%d states; failures per invariant %v", len(seen), fails)
		})
	}
	spec := MSI(2)
	cache, dir := spec.Cache, spec.Dir
	for name, build := range map[string]func(){
		"AtMostOne":               func() { mc.AtMostOne(cache, "M", "X") },
		"SWMR writer":             func() { mc.SWMR(cache, []string{"X"}, []string{"S"}) },
		"SWMR reader":             func() { mc.SWMR(cache, []string{"M"}, []string{"X"}) },
		"dirAccuracy directory":   func() { dirAccuracy("d", dir, cache, "X", []string{"M"}, "Owner") },
		"dirAccuracy cache":       func() { dirAccuracy("d", dir, cache, "M", []string{"X"}, "Owner") },
		"noWriterUnderUnownedDir": func() { noWriterUnderUnownedDir("d", dir, cache, "X") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s naming an unknown control state does not panic", name)
				}
			}()
			build()
		}()
	}
}
