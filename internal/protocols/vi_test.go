package protocols

import (
	"context"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
	"transit/internal/synth"
)

// synthesizeAndCheck runs the full pipeline on a spec: complete the
// skeleton from snippets, then model check the result.
func synthesizeAndCheck(t *testing.T, spec *Spec, mcOpts mc.Options) (*core.Report, *mc.Result) {
	t.Helper()
	rep, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 12}})
	if err != nil {
		t.Fatalf("%s: synthesis: %v", spec.Name, err)
	}
	rt, err := efsm.NewRuntime(spec.Sys)
	if err != nil {
		t.Fatalf("%s: runtime: %v", spec.Name, err)
	}
	res, err := mc.CheckCtx(context.Background(), rt, spec.Invariants, mcOpts)
	if err != nil {
		t.Fatalf("%s: model check: %v", spec.Name, err)
	}
	return rep, res
}

func TestVISynthesizesAndVerifies(t *testing.T) {
	for _, n := range []int{2, 3} {
		spec := VI(n)
		rep, res := synthesizeAndCheck(t, spec, mc.Options{MaxStates: 500_000, CheckDeadlock: true})
		if !res.OK {
			t.Fatalf("VI(%d) violation:\n%v", n, res.Violation)
		}
		if !res.Complete {
			t.Fatalf("VI(%d) exploration incomplete", n)
		}
		t.Logf("VI(%d): %d snippets, %d transitions, %d updates, %d guards synth, %d exprs tried, %d states",
			n, rep.Snippets, rep.Transitions, rep.UpdatesSynthesized, rep.GuardsSynthesized,
			rep.UpdateExprsTried+rep.GuardExprsTried, res.States)
	}
}
