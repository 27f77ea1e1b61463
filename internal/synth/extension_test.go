package synth_test

import (
	"context"
	"testing"

	"transit/internal/protocols"
	"transit/internal/synth"
)

// TestBankExtensionMatchesEval holds bank extension to the evaluator on
// the short Table 3 rows and every completion of case study A: after every
// resumed round, each pooled entry, shadow and alt decodes to its
// expression's Eval on every concretization, and the indexes find every
// entry by its own bytes. Extension computes each new coordinate from the
// children's packed fields alone, so this is its only independent check.
func TestBankExtensionMatchesEval(t *testing.T) {
	if testing.Short() {
		t.Skip("completes case study A")
	}
	checked, stop := synth.CheckResumedRounds(func(err error) { t.Error(err) })
	defer stop()
	for _, r := range table3Rows(t) {
		if _, _, err := synth.SolveConcolicCtx(context.Background(), r.p, r.exs, r.limits); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	rows := checked.Load()
	caseStudyRecords(t, protocols.CaseStudyA(3))
	if rows == 0 || checked.Load() == rows {
		t.Fatalf("checked %d resumed rounds on Table 3 and %d on case study A; want some of each",
			rows, checked.Load()-rows)
	}
	t.Logf("checked %d resumed rounds on Table 3 and %d on case study A", rows, checked.Load()-rows)
}
