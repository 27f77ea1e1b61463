// Package protocols contains the cache-coherence protocols used in the
// paper's evaluation, expressed as TRANSIT snippet programs over efsm
// skeletons: VI and MSI (the GEMS transcriptions of Table 4), the
// MSI→MESI extension of case study B, and the Origin-style protocol of
// case study C with the §2 Sharers anecdote. Each Spec bundles the
// skeleton, the vocabulary, the snippets, and the coherence invariants the
// model checker enforces.
package protocols

import (
	"fmt"

	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/lang"
	"transit/internal/mc"
)

// Spec is a complete protocol specification ready for synthesis: feed
// Snippets through core.CompleteCtx over Sys, then model check with
// Invariants.
type Spec struct {
	Name       string
	Sys        *efsm.System
	Vocab      *expr.Vocabulary
	Snippets   []*efsm.Snippet
	Invariants []mc.Invariant

	// Cache and Dir expose the two process definitions for invariants and
	// tests.
	Cache *efsm.ProcDef
	Dir   *efsm.ProcDef
}

// Protocol adapts the spec to the form the synthesis and checking
// entry points take.
func (s *Spec) Protocol() *lang.Protocol {
	return &lang.Protocol{Name: s.Name, Sys: s.Sys, Vocab: s.Vocab,
		Snippets: s.Snippets, Invariants: s.Invariants}
}

// BuiltinNames lists the names Builtin accepts.
const BuiltinNames = "vi, msi, mesi, origin, origin-buggy"

// Builtin returns the built-in protocol of that name at numCaches caches:
// vi, msi, mesi, origin, or origin-buggy (Origin without the Figure 2
// fix).
func Builtin(name string, numCaches int) (*lang.Protocol, error) {
	var s *Spec
	switch name {
	case "vi":
		s = VI(numCaches)
	case "msi":
		s = MSI(numCaches)
	case "mesi":
		s = MESI(numCaches)
	case "origin":
		s = Origin(numCaches, true)
	case "origin-buggy":
		s = Origin(numCaches, false)
	default:
		return nil, fmt.Errorf("unknown builtin %q (want one of %s)", name, BuiltinNames)
	}
	return s.Protocol(), nil
}

// snip is a fluent snippet builder used by the protocol constructors; it
// keeps the transcriptions close to the paper's Figure 4 shape.
type snip struct {
	s *efsm.Snippet
}

func newSnip(label, process, from, to string, ev efsm.Event) *snip {
	return &snip{s: &efsm.Snippet{
		Label: label, Process: process, From: from, To: to, Event: ev,
	}}
}

// onMsg builds a message event.
func onMsg(net *efsm.Network) efsm.Event { return efsm.Event{Net: net, MsgVar: "Msg"} }

// onTrig builds a trigger event.
func onTrig(name string) efsm.Event { return efsm.Event{Trigger: name} }

func (b *snip) guard(g expr.Expr) *snip { b.s.Guard = g; return b }

func (b *snip) send(net *efsm.Network, msgVar string) *snip {
	b.s.Sends = append(b.s.Sends, efsm.SendSpec{Net: net, MsgVar: msgVar})
	return b
}

func (b *snip) multicast(net *efsm.Network, msgVar string, targets expr.Expr) *snip {
	b.s.Sends = append(b.s.Sends, efsm.SendSpec{Net: net, MsgVar: msgVar, TargetSet: targets})
	return b
}

// kase adds a guard-action case; pre may be nil (true).
func (b *snip) kase(pre expr.Expr, posts ...efsm.Post) *snip {
	b.s.Cases = append(b.s.Cases, efsm.SnippetCase{Pre: pre, Posts: posts})
	return b
}

// stall marks the snippet as a defer rule.
func (b *snip) stall() *snip { b.s.Defer = true; return b }

func (b *snip) done() *efsm.Snippet { return b.s }

// eq is the symbolic-action post Target' = rhs.
func eq(target string, rhs expr.Expr) efsm.Post { return efsm.EqPost(target, rhs) }

// field references a received-message field ("Msg.<name>").
func field(name string, t expr.Type) *expr.Var { return expr.V("Msg."+name, t) }

// selfVar is the implicit instance identity.
func selfVar() *expr.Var { return expr.V(efsm.SelfVar, expr.PIDType) }

// dirAccuracy asserts that whenever the directory is in dirState, every
// cache instance occupying one of cacheStates is tracked by the directory
// variable tracker: a member of it when it is a Set (Sharers), equal to it
// when it is a PID (Owner).
func dirAccuracy(name string, dir, cache *efsm.ProcDef, dirState string, cacheStates []string,
	tracker string) mc.Invariant {
	atDir, in := dir.StateSet(dirState), cache.StateSet(cacheStates...)
	j := dir.VarIndex(tracker)
	if j < 0 {
		panic(fmt.Sprintf("protocols: process %s has no variable %s", dir.Name, tracker))
	}
	set := dir.Vars[j].VT.Kind == expr.KindSet
	return mc.Predicate(name, func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		dirIdx := r.InstancesOf(dir)[0]
		if !atDir[r.CtlOrd(st, dirIdx)] {
			return true, ""
		}
		v := r.VarAt(st, dirIdx, j)
		for _, idx := range r.InstancesOf(cache) {
			if !in[r.CtlOrd(st, idx)] {
				continue
			}
			pid := r.Insts[idx].PID
			if set && v.Set()&(1<<uint(pid)) == 0 || !set && v.PID() != pid {
				return false, fmt.Sprintf("directory in %s does not track %s (in %s)",
					dirState, r.Insts[idx].Name(), r.CtlOf(st, idx))
			}
		}
		return true, ""
	})
}

// noWriterUnderUnownedDir asserts that no cache occupies one of the writer
// states while the directory is in I, S or B_M, believing the line
// unowned or shared.
func noWriterUnderUnownedDir(name string, dir, cache *efsm.ProcDef, writers ...string) mc.Invariant {
	unowned, writer := dir.StateSet("I", "S", "B_M"), cache.StateSet(writers...)
	return mc.Predicate(name, func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		dirIdx := r.InstancesOf(dir)[0]
		if !unowned[r.CtlOrd(st, dirIdx)] {
			return true, ""
		}
		for _, idx := range r.InstancesOf(cache) {
			if writer[r.CtlOrd(st, idx)] {
				return false, r.Insts[idx].Name() + " in " + r.CtlOf(st, idx) + " while directory in " + r.CtlOf(st, dirIdx)
			}
		}
		return true, ""
	})
}
