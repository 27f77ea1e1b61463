package mc_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// goldenPath pins every model-checking answer the checker gives on the
// fixtures below: each Result field except the wall-clock ones, plus the
// violation's trace and message-sequence chart.
const goldenPath = "testdata/golden.txt"

// goldenRecord runs one check and renders its answer.
func goldenRecord(name string, r *efsm.Runtime, invs []mc.Invariant, opts mc.Options) (string, *mc.Result) {
	res, err := mc.CheckCtx(context.Background(), r, invs, opts)
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s symmetry=%v\n", name, opts.SymmetryReduction)
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
	}
	fmt.Fprintf(&sb, "ok=%v complete=%v states=%d transitions=%d depth=%d\n",
		res.OK, res.Complete, res.States, res.Transitions, res.Depth)
	fmt.Fprintf(&sb, "symmetry_applied=%v reduction_factor=%s\n",
		res.SymmetryApplied, strconv.FormatFloat(res.ReductionFactor, 'g', -1, 64))
	if res.Violation != nil {
		sb.WriteString("--- violation\n")
		sb.WriteString(res.Violation.String())
		sb.WriteString("--- msc\n")
		sb.WriteString(mc.FormatMSC(r, res.Violation.Actions()))
	}
	return sb.String(), res
}

// TestGoldenResults checks the token and grant fixtures and the five
// built-in protocols at 3 caches with symmetry off and on, and every
// iteration of case studies A-C with symmetry on, against the committed
// golden file byte for byte. On a mismatch it writes what it got to a
// temporary file and names it, so a deliberate change can be reviewed
// and copied over the golden file.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("completes five protocols and three case studies")
	}
	var out strings.Builder
	for _, sym := range []bool{false, true} {
		for _, f := range mc.GoldenFixtures(t) {
			opts := f.Opts
			opts.SymmetryReduction = sym
			rec, _ := goldenRecord(f.Name, f.R, f.Invs, opts)
			out.WriteString(rec)
		}
	}
	for _, p := range []struct {
		name string
		spec *protocols.Spec
	}{
		{"vi", protocols.VI(3)},
		{"msi", protocols.MSI(3)},
		{"mesi", protocols.MESI(3)},
		{"origin", protocols.Origin(3, true)},
		{"origin-buggy", protocols.Origin(3, false)},
	} {
		if _, err := core.CompleteCtx(context.Background(), p.spec.Sys, p.spec.Vocab, p.spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
			t.Fatalf("completing %s: %v", p.name, err)
		}
		r, err := efsm.NewRuntime(p.spec.Sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range []bool{false, true} {
			opts := mc.Options{CheckDeadlock: true, SymmetryReduction: sym}
			rec, _ := goldenRecord(p.name+"/n=3", r, p.spec.Invariants, opts)
			out.WriteString(rec)
		}
	}
	for _, cs := range []core.CaseStudy{
		protocols.CaseStudyA(3), protocols.CaseStudyB(3), protocols.CaseStudyC(3),
	} {
		out.WriteString(caseStudyRecords(t, cs))
	}

	got := out.String()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if got == string(want) {
		return
	}
	f, err := os.CreateTemp("", "mc-golden-*.txt")
	if err == nil {
		_, err = f.WriteString(got)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatalf("results differ from %s, and writing them out failed: %v", goldenPath, err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	t.Fatalf("results differ from %s from line %d; got output written to %s", goldenPath, line+1, f.Name())
}

// caseStudyRecords replays a case study the way core.RunCaseStudyCtx does,
// with symmetry on, rendering every iteration's check while its runtime is
// still at hand for the message-sequence chart.
func caseStudyRecords(t *testing.T, cs core.CaseStudy) string {
	t.Helper()
	var sb strings.Builder
	snippets := append([]*efsm.Snippet(nil), cs.Initial...)
	opts := cs.MCOpts
	opts.SymmetryReduction = true
	for iter := 1; ; iter++ {
		sys, vocab, invs, err := cs.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.CompleteCtx(context.Background(), sys, vocab, snippets,
			core.Options{Limits: cs.Limits}); err != nil {
			t.Fatalf("case study %s iteration %d: %v", cs.Name, iter, err)
		}
		r, err := efsm.NewRuntime(sys)
		if err != nil {
			t.Fatal(err)
		}
		rec, res := goldenRecord(fmt.Sprintf("case study %s/iteration %d", cs.Name, iter), r, invs, opts)
		sb.WriteString(rec)
		if res.OK {
			return sb.String()
		}
		if iter > len(cs.Fixes) {
			t.Fatalf("case study %s: fixes exhausted after iteration %d", cs.Name, iter)
		}
		snippets = append(snippets, cs.Fixes[iter-1].Snippets...)
	}
}
