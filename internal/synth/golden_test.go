package synth_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"transit/internal/bench"
	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/obs"
	"transit/internal/obs/provenance"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// goldenPath pins every synthesis answer on the fixtures below: each
// synthesized expression and completed transition, the solve counters,
// and the full CEGIS trace. Wall times and SMT clause counts are left
// out: the first moves with the host, the second with the SMT encoding,
// while the answers stay put.
const goldenPath = "testdata/golden.txt"

// goldenCounters are the registry counters summed over one completion.
// They carry the per-solve figures the ledger and the job events do not
// (interpretation-pruned candidates, bank reuses, stale and fallback
// restarts, unrealizable holes).
var goldenCounters = []string{
	"synth.solves", "synth.cegis_iterations", "synth.candidates", "synth.kept",
	"synth.interp_pruned", "synth.bank_reused", "synth.bank_stale",
	"synth.bank_fallback", "synth.unrealizable", "smt.queries",
}

// renderRounds writes one line per CEGIS round.
func renderRounds(sb *strings.Builder, rounds []synth.IterRecord) {
	for _, r := range rounds {
		fmt.Fprintf(sb, "  round %d: candidate=%s killed_by=%d enumerated=%d kept=%d resumed=%v restarted=%v",
			r.Round, r.Candidate, r.KilledBy, r.Enumerated, r.Kept, r.Resumed, r.Restarted)
		if r.Witness != "" || r.CounterOut != "" {
			fmt.Fprintf(sb, " witness={%s} out=%s", r.Witness, r.CounterOut)
		}
		sb.WriteByte('\n')
	}
}

// table3Row is one short Table 3 row, set up the way the infer workload
// of the end-to-end benchmark sets it up.
type table3Row struct {
	name   string
	p      synth.Problem
	exs    []synth.ConcolicExample
	limits synth.Limits
}

func table3Rows(t *testing.T) []table3Row {
	t.Helper()
	var rows []table3Row
	for _, b := range bench.Table3Benchmarks() {
		if b.Long {
			continue
		}
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, exs := b.Build(u)
		rows = append(rows, table3Row{b.Name, p, exs, synth.Limits{MaxSize: b.ExpectedSize + 2}})
	}
	return rows
}

// table3Records renders every Stats field of the Table 3 rows but the
// wall times and SMTClauses.
func table3Records(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range table3Rows(t) {
		e, st, err := synth.SolveConcolicCtx(context.Background(), r.p, r.exs, r.limits)
		fmt.Fprintf(&sb, "=== table3 %s\n", r.name)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
		} else {
			fmt.Fprintf(&sb, "result: %s\n", e)
		}
		c := st.Concrete
		fmt.Fprintf(&sb, "iterations=%d smt_queries=%d enumerated=%d kept=%d max_size_seen=%d restarts=%d bank_reuses=%d interp_pruned=%d unrealizable=%v\n",
			st.Iterations, st.SMTQueries, c.Enumerated, c.Kept, c.MaxSizeSeen, c.Restarts, st.BankReuses, c.InterpPruned, st.Unrealizable)
		renderRounds(&sb, st.Trace)
	}
	return sb.String()
}

// TestBankReusesMatchCounter checks that Stats.BankReuses counts exactly
// the rounds the synth.bank_reused counter counts, and that the trace
// marks the same rounds resumed: a round whose bank is proven stale
// before the walk runs fresh and is a restart, not a reuse.
func TestBankReusesMatchCounter(t *testing.T) {
	for _, r := range table3Rows(t) {
		reg := obs.NewRegistry()
		_, st, err := synth.SolveConcolicCtx(obs.WithMetrics(context.Background(), reg), r.p, r.exs, r.limits)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		resumed := 0
		for _, it := range st.Trace {
			if it.Resumed {
				resumed++
			}
		}
		if got := reg.Get("synth.bank_reused"); int64(st.BankReuses) != got || resumed != st.BankReuses {
			t.Errorf("%s: Stats.BankReuses = %d, resumed rounds = %d, synth.bank_reused = %d",
				r.name, st.BankReuses, resumed, got)
		}
	}
}

// jobSpans keeps the attributes of every engine.job span, keyed by the
// job label; it drops every other span so a whole completion stays cheap
// to trace.
type jobSpans struct {
	mu   sync.Mutex
	jobs map[string]map[string]any
}

func (j *jobSpans) Span(d obs.SpanData) {
	if d.Name != "engine.job" {
		return
	}
	attrs := map[string]any{}
	for _, a := range d.Attrs {
		attrs[a.Key] = a.Value
	}
	j.mu.Lock()
	j.jobs[attrs["job"].(string)] = attrs
	j.mu.Unlock()
}

func (*jobSpans) Mark(obs.SpanData) {}
func (*jobSpans) Flush() error      { return nil }

// completionRecord completes a system at one worker and renders its
// transitions, then every hole of the provenance ledger with the job's
// counters from its engine.job span, then the registry counters summed
// over the run.
func completionRecord(t *testing.T, name string, sys *efsm.System, vocab *expr.Vocabulary,
	snippets []*efsm.Snippet, limits synth.Limits) string {
	t.Helper()
	rec := provenance.NewRecorder(name)
	reg := obs.NewRegistry()
	spans := &jobSpans{jobs: map[string]map[string]any{}}
	ctx := obs.WithTracer(provenance.WithRecorder(context.Background(), rec), obs.NewTracer(spans))
	ctx = obs.WithMetrics(ctx, reg)
	_, err := core.CompleteCtx(ctx, sys, vocab, snippets, core.Options{Limits: limits})
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s\n", name)
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
	}
	sb.WriteString("--- transitions\n")
	for _, d := range sys.Defs {
		fmt.Fprintf(&sb, "process %s:\n", d.Name)
		for _, tr := range d.Transitions {
			if tr.Defer {
				fmt.Fprintf(&sb, "  (%s, %s) [%s] stall\n", tr.From, tr.Event, tr.GuardString())
				continue
			}
			fmt.Fprintf(&sb, "  (%s, %s) [%s] -> %s\n", tr.From, tr.Event, tr.GuardString(), tr.To)
			for _, u := range tr.Updates {
				fmt.Fprintf(&sb, "      %s := %s\n", u.Var, expr.Pretty(u.Rhs))
			}
			for _, s := range tr.Sends {
				if s.TargetSet != nil {
					fmt.Fprintf(&sb, "      send %s to each of %s:\n", s.Net.Name, expr.Pretty(s.TargetSet))
				} else {
					fmt.Fprintf(&sb, "      send %s:\n", s.Net.Name)
				}
				for _, f := range s.Fields {
					fmt.Fprintf(&sb, "        %s = %s\n", f.Field, expr.Pretty(f.Rhs))
				}
			}
		}
	}
	sb.WriteString("--- holes\n")
	for _, h := range rec.Ledger().Holes {
		job := spans.jobs[h.Label]
		count := func(key string) int64 { n, _ := job[key].(int64); return n }
		hit, _ := job["cache_hit"].(bool)
		fmt.Fprintf(&sb, "%s: %s %s\n", h.Label, h.Status, h.Result)
		if h.Error != "" {
			fmt.Fprintf(&sb, "  error: %s\n", h.Error)
		}
		fmt.Fprintf(&sb, "  iterations=%d smt_queries=%d enumerated=%d cache_hit=%v\n",
			count("cegis_iterations"), count("smt_queries"), count("candidates"), hit)
		renderRounds(&sb, h.Iterations)
	}
	sb.WriteString("--- counters\n")
	for _, c := range goldenCounters {
		fmt.Fprintf(&sb, "%s=%d\n", c, reg.Get(c))
	}
	return sb.String()
}

// caseStudyRecords replays a case study with a fresh memo cache for every
// iteration, rendering every iteration's completion; the model checker
// only decides when the fixes stop.
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
		sb.WriteString(completionRecord(t, fmt.Sprintf("case study %s/iteration %d", cs.Name, iter),
			sys, vocab, snippets, cs.Limits))
		r, err := efsm.NewRuntime(sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.CheckCtx(context.Background(), r, invs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			return sb.String()
		}
		if iter > len(cs.Fixes) {
			t.Fatalf("case study %s: fixes exhausted after iteration %d", cs.Name, iter)
		}
		snippets = append(snippets, cs.Fixes[iter-1].Snippets...)
	}
}

// TestGoldenSynthesis checks the nine short Table 3 rows, the five
// built-in protocols at 3 caches and every iteration of case studies A-C
// against the committed golden file byte for byte. On a mismatch it
// writes what it got to a temporary file and names it, so a deliberate
// change can be reviewed and copied over the golden file.
func TestGoldenSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("completes five protocols and three case studies")
	}
	var out strings.Builder
	out.WriteString(table3Records(t))
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
		out.WriteString(completionRecord(t, p.name+"/n=3", p.spec.Sys, p.spec.Vocab, p.spec.Snippets,
			synth.Limits{MaxSize: 12}))
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
	f, err := os.CreateTemp("", "synth-golden-*.txt")
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
