package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/protocols"
	"transit/internal/smt"
	"transit/internal/synth"
)

// TestCompletionCertificate holds every completed built-in to its
// snippets with the plain evaluator alone, independently of the SMT layer
// that completion's own exclusion check and CEGIS rounds go through:
//   - every two non-nil guards of one (from, event) group are disjoint;
//   - every case precondition of a block whose guard was inferred implies
//     that guard;
//   - every snippet post holds under its case precondition once its primed
//     target is replaced by the installed right-hand side: the update of a
//     process variable (the variable itself when there is none) or the
//     field of the transition's send.
//
// Each formula is decided by smt.SolveBrute, which evaluates it with
// expr.Eval on every valuation of the variables it mentions.
func TestCompletionCertificate(t *testing.T) {
	builds := []func(int) *protocols.Spec{
		protocols.VI, protocols.MSI, protocols.MESI,
		func(n int) *protocols.Spec { return protocols.Origin(n, true) },
	}
	for _, n := range []int{2, 3} {
		for _, build := range builds {
			spec := build(n)
			t.Run(fmt.Sprintf("%s/n=%d", spec.Name, n), func(t *testing.T) {
				if _, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
					core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
					t.Fatal(err)
				}
				for _, err := range certify(spec.Sys, spec.Snippets) {
					t.Error(err)
				}
			})
		}
	}
}

// certify returns every way the completed system fails its snippets.
func certify(sys *efsm.System, snippets []*efsm.Snippet) []error {
	var errs []error
	for _, d := range sys.Defs {
		// Disjointness, over the guards of each (from, event) group.
		groups := map[string][]*efsm.Transition{}
		for _, t := range d.Transitions {
			k := t.From + "|" + t.Event.Key()
			groups[k] = append(groups[k], t)
		}
		for _, ts := range groups {
			for i, ti := range ts {
				for _, tj := range ts[i+1:] {
					if ti.Guard == nil || tj.Guard == nil {
						continue
					}
					if err := unsat(sys, d, ti.Event, expr.And(ti.Guard, tj.Guard)); err != nil {
						errs = append(errs, fmt.Errorf("%s (%s, %s): guards %s and %s overlap: %w",
							d.Name, ti.From, ti.Event, expr.Pretty(ti.Guard), expr.Pretty(tj.Guard), err))
					}
				}
			}
		}

		// Each snippet against the transition of its block.
		byBlock := map[string]*efsm.Transition{}
		for _, t := range d.Transitions {
			byBlock[transitionBlockKey(t)] = t
		}
		symbolic := map[string]bool{}
		for _, sn := range snippets {
			if sn.Process == d.Name && sn.Guard != nil {
				symbolic[sn.BlockKey()] = true
			}
		}
		for _, sn := range snippets {
			if sn.Process != d.Name {
				continue
			}
			t := byBlock[sn.BlockKey()]
			if t == nil {
				errs = append(errs, fmt.Errorf("%s: snippet %q has no installed transition", d.Name, sn.Label))
				continue
			}
			inferred := !sn.Defer && !symbolic[sn.BlockKey()]
			for ci, c := range sn.Cases {
				pre := c.Pre
				if pre == nil {
					pre = expr.True()
				}
				if inferred {
					if err := unsat(sys, d, sn.Event, expr.And(pre, expr.Not(t.Guard))); err != nil {
						errs = append(errs, fmt.Errorf("%s: snippet %q case %d: precondition does not imply the inferred guard %s: %w",
							d.Name, sn.Label, ci, expr.Pretty(t.Guard), err))
					}
				}
				for _, post := range c.Posts {
					rhs, err := installedRhs(sys, d, t, post.Target)
					if err != nil {
						errs = append(errs, fmt.Errorf("%s: snippet %q case %d: %w", d.Name, sn.Label, ci, err))
						continue
					}
					got := expr.Subst(post.Constraint, efsm.Prime(post.Target), rhs)
					if err := unsat(sys, d, sn.Event, expr.And(pre, expr.Not(got))); err != nil {
						errs = append(errs, fmt.Errorf("%s: snippet %q case %d: post %s fails with %s := %s: %w",
							d.Name, sn.Label, ci, expr.Pretty(post.Constraint), post.Target, expr.Pretty(rhs), err))
					}
				}
			}
		}
	}
	return errs
}

// transitionBlockKey is the BlockKey of the snippets a transition was
// completed from.
func transitionBlockKey(t *efsm.Transition) string {
	sn := efsm.Snippet{From: t.From, Event: t.Event, To: t.To, Defer: t.Defer}
	for _, s := range t.Sends {
		sn.Sends = append(sn.Sends, efsm.SendSpec{Net: s.Net, MsgVar: s.MsgVar, TargetSet: s.TargetSet})
	}
	return sn.BlockKey()
}

// installedRhs is what t assigns to target: a process variable's update
// (the variable itself when t has none), or an outbound field of t's
// send.
func installedRhs(sys *efsm.System, d *efsm.ProcDef, t *efsm.Transition, target string) (expr.Expr, error) {
	if msgVar, field, ok := strings.Cut(target, "."); ok {
		for _, s := range t.Sends {
			if s.MsgVar != msgVar {
				continue
			}
			for _, f := range s.Fields {
				if f.Field == field {
					return f.Rhs, nil
				}
			}
		}
		return nil, fmt.Errorf("no send assigns %s", target)
	}
	for _, u := range t.Updates {
		if u.Var == target {
			return u.Rhs, nil
		}
	}
	ty, ok := sys.ScopeOf(d, t.Event)[target]
	if !ok {
		return nil, fmt.Errorf("%s is not in scope", target)
	}
	return expr.V(target, ty), nil
}

// unsat returns nil when no valuation of the variables f mentions,
// typed from the scope of d on ev, satisfies f, and otherwise an error
// naming one that does.
func unsat(sys *efsm.System, d *efsm.ProcDef, ev efsm.Event, f expr.Expr) error {
	scope := sys.ScopeOf(d, ev)
	var vars []*expr.Var
	for _, name := range expr.Vars(f) {
		ty, ok := scope[name]
		if !ok {
			return fmt.Errorf("%s is not in scope", name)
		}
		vars = append(vars, expr.V(name, ty))
	}
	res, err := smt.SolveBrute(sys.U, vars, f, 1<<20)
	if err != nil {
		return err
	}
	if res.Status == smt.Sat {
		return fmt.Errorf("e.g. %v", res.Model)
	}
	return nil
}
