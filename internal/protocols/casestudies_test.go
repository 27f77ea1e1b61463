package protocols

import (
	"context"
	"testing"

	"transit/internal/core"
)

func runStudy(t *testing.T, cs core.CaseStudy) *core.CaseStudyResult {
	t.Helper()
	res, err := core.RunCaseStudyCtx(context.Background(), cs)
	if err != nil {
		t.Fatalf("%s: %v", cs.Name, err)
	}
	if !res.Converged {
		t.Fatalf("%s did not converge", cs.Name)
	}
	for _, it := range res.Iterations {
		status := "OK"
		if it.Violation != nil {
			status = it.Violation.Kind.String() + ": " + it.Violation.Name
		}
		t.Logf("%s iter %d (+%d snippets, %q): %d states, %s",
			cs.Name, it.Index, it.SnippetsAdded, it.FixLabel, it.Check.States, status)
	}
	t.Logf("%s: converged with %d snippets over %d iterations, %d states, %d transitions",
		cs.Name, res.TotalSnippets, len(res.Iterations), res.FinalStates, res.FinalTransitions)
	return res
}

func TestCaseStudyA(t *testing.T) {
	res := runStudy(t, CaseStudyA(2))
	if len(res.Iterations) < 3 {
		t.Errorf("case study A should take several iterations, got %d", len(res.Iterations))
	}
}

func TestCaseStudyB(t *testing.T) {
	res := runStudy(t, CaseStudyB(2))
	if len(res.Iterations) < 2 {
		t.Errorf("case study B should take several iterations, got %d", len(res.Iterations))
	}
}

func TestCaseStudyC(t *testing.T) {
	res := runStudy(t, CaseStudyC(2))
	if len(res.Iterations) != 2 {
		t.Errorf("case study C converges after the Figure 2 fix: got %d iterations", len(res.Iterations))
	}
	first := res.Iterations[0]
	if first.Violation == nil {
		t.Error("first Origin iteration must violate sharers accuracy")
	}
}
