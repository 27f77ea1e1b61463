package protocols

import (
	"context"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/synth"
)

// TestOriginAnecdoteEndToEnd replays §2 at full pipeline scale: the
// underspecified transcription synthesizes the buggy Sharers update and
// the model checker produces the Figure 2 violation; adding the concrete
// fix yields a verified protocol with the corrected update.
func TestOriginAnecdoteEndToEnd(t *testing.T) {
	// Buggy variant.
	buggy := Origin(2, false)
	rep, err := core.CompleteCtx(context.Background(), buggy.Sys, buggy.Vocab, buggy.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 12}})
	if err != nil {
		t.Fatalf("buggy synthesis: %v", err)
	}
	_ = rep
	if got := originSharersUpdate(t, buggy); !strings.Contains(got, "setadd(Sharers, Msg.Sender)") {
		t.Fatalf("buggy update = %s, want Sharers ∪ {Msg.Sender}", got)
	}
	rt, err := efsm.NewRuntime(buggy.Sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.CheckCtx(context.Background(), rt, buggy.Invariants, mc.Options{MaxStates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Violation == nil {
		t.Fatal("buggy Origin must violate an invariant")
	}
	if res.Violation.Name != "dir-sharers-accuracy" && res.Violation.Name != "SWMR" {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	t.Logf("buggy Origin violation (%s) after %d states:\n%v",
		res.Violation.Name, res.States, res.Violation)

	// Fixed variant.
	fixed := Origin(2, true)
	rep2, res2 := synthesizeAndCheck(t, fixed, mc.Options{MaxStates: 2_000_000, CheckDeadlock: true})
	if !res2.OK {
		t.Fatalf("fixed Origin violation:\n%v", res2.Violation)
	}
	got := originSharersUpdate(t, fixed)
	if !strings.Contains(got, "Owner") || !strings.Contains(got, "Msg.Sender") {
		t.Fatalf("fixed update = %s, want Sharers ∪ {Msg.Sender, Owner}", got)
	}
	t.Logf("fixed Origin: update %s, %d transitions, %d states", got, rep2.Transitions, res2.States)
}

// originSharersUpdate extracts the synthesized Sharers update of the
// EXCL + READ transition.
func originSharersUpdate(t *testing.T, spec *Spec) string {
	t.Helper()
	for _, tr := range spec.Dir.Transitions {
		if tr.From != "EXCL" || tr.To != "BUSY_SHARED" {
			continue
		}
		for _, up := range tr.Updates {
			if up.Var == "Sharers" {
				return up.Rhs.String()
			}
		}
	}
	t.Fatal("no EXCL->BUSY_SHARED Sharers update found")
	return ""
}

func TestOriginFixedVerifiesAtThreeCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("3-cache Origin exploration in long mode only")
	}
	spec := Origin(3, true)
	rep, res := synthesizeAndCheck(t, spec, mc.Options{MaxStates: 4_000_000, CheckDeadlock: true})
	if !res.OK {
		t.Fatalf("Origin(3) violation:\n%v", res.Violation)
	}
	t.Logf("Origin(3): %d snippets, %d transitions, %d states", rep.Snippets, rep.Transitions, res.States)
}

var _ = expr.True // keep expr import if unused in edits
