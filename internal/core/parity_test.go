package core_test

// External test package: the worker-count parity tests synthesize the real
// case-study protocols, and internal/protocols imports core, so these
// cannot live in package core.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/engine"
	"transit/internal/engine/diskcache"
	"transit/internal/mc"
	"transit/internal/obs"
	"transit/internal/obs/provenance"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// renderSystem serializes every completed transition — guards, updates,
// sends, field assignments — into one canonical string, so two completed
// systems can be compared byte for byte.
func renderSystem(sys *efsm.System) string {
	var sb strings.Builder
	for _, d := range sys.Defs {
		fmt.Fprintf(&sb, "process %s\n", d.Name)
		for _, t := range d.Transitions {
			if t.Defer {
				fmt.Fprintf(&sb, "  (%s, %s) [%s] stall\n", t.From, t.Event, t.GuardString())
				continue
			}
			fmt.Fprintf(&sb, "  (%s, %s) [%s] -> %s\n", t.From, t.Event, t.GuardString(), t.To)
			for _, u := range t.Updates {
				fmt.Fprintf(&sb, "    %s := %s\n", u.Var, u.Rhs)
			}
			for _, s := range t.Sends {
				if s.TargetSet != nil {
					fmt.Fprintf(&sb, "    send %s to %s\n", s.Net.Name, s.TargetSet)
				} else {
					fmt.Fprintf(&sb, "    send %s\n", s.Net.Name)
				}
				for _, f := range s.Fields {
					fmt.Fprintf(&sb, "      %s = %s\n", f.Field, f.Rhs)
				}
			}
		}
	}
	return sb.String()
}

// TestWorkerCountParity is the acceptance gate for the engine rewiring:
// for each case-study protocol, the EFSM completed with the concurrent
// engine must be byte-identical across worker counts (workers=1 being the
// historical sequential order), with and without the memo cache.
func TestWorkerCountParity(t *testing.T) {
	specs := map[string]func() *protocols.Spec{
		"VI":     func() *protocols.Spec { return protocols.VI(2) },
		"MSI":    func() *protocols.Spec { return protocols.MSI(2) },
		"MESI":   func() *protocols.Spec { return protocols.MESI(2) },
		"Origin": func() *protocols.Spec { return protocols.Origin(2, true) },
	}
	for name, mk := range specs {
		t.Run(name, func(t *testing.T) {
			complete := func(workers int, disableCache bool) (string, *core.Report) {
				spec := mk()
				rep, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
					core.Options{
						Limits:       synth.Limits{MaxSize: 12},
						Workers:      workers,
						DisableCache: disableCache,
					})
				if err != nil {
					t.Fatalf("workers=%d cache=%v: %v", workers, !disableCache, err)
				}
				return renderSystem(spec.Sys), rep
			}
			baseline, baseRep := complete(1, false)
			for _, workers := range []int{2, 4} {
				got, rep := complete(workers, false)
				if got != baseline {
					t.Errorf("workers=%d EFSM differs from sequential:\n--- workers=1\n%s\n--- workers=%d\n%s",
						workers, baseline, workers, got)
				}
				// Stats replay keeps the report counters worker-invariant too.
				if rep.UpdateExprsTried != baseRep.UpdateExprsTried ||
					rep.GuardExprsTried != baseRep.GuardExprsTried ||
					rep.SMTQueries != baseRep.SMTQueries ||
					rep.Transitions != baseRep.Transitions {
					t.Errorf("workers=%d report differs: %+v vs %+v", workers, rep, baseRep)
				}
			}
			if uncached, _ := complete(2, true); uncached != baseline {
				t.Error("disabling the cache changed the completed EFSM")
			}
		})
	}
}

// TestSharedCacheAcrossRebuilds covers the cross-universe replay path: a
// cache populated by one build of a protocol is reused by a fresh build
// (new Universe, new enum instances) and must still produce the identical,
// well-typed EFSM with a 100% job hit rate.
func TestSharedCacheAcrossRebuilds(t *testing.T) {
	cache := engine.NewCache()
	reg := obs.NewRegistry()
	complete := func() string {
		spec := protocols.VI(2)
		_, err := core.CompleteCtx(obs.WithMetrics(context.Background(), reg), spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}, Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return renderSystem(spec.Sys)
	}
	cold := complete()
	hits0 := reg.Get("engine.cache.mem_hits")
	warm := complete()
	if warm != cold {
		t.Errorf("warm-cache rebuild differs:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	hits1 := reg.Get("engine.cache.mem_hits")
	if hits1 <= hits0 {
		t.Errorf("warm rebuild produced no cache hits (%d -> %d)", hits0, hits1)
	}
}

// replayRun is what a case-study replay produced: each iteration's
// completion report and model-check result, the final system and the
// provenance ledger of every iteration's holes.
type replayRun struct {
	reports []core.Report
	checks  []*mc.Result
	final   string
	ledger  string
}

// caseStudyLedger runs replay with a provenance recorder in its context
// and returns the ledger's NDJSON beside the replay's own results.
func caseStudyLedger(t *testing.T, name string, replay func(ctx context.Context) replayRun) replayRun {
	t.Helper()
	rec := provenance.NewRecorder(name)
	run := replay(provenance.WithRecorder(context.Background(), rec))
	var sb strings.Builder
	if err := rec.Ledger().WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	run.ledger = sb.String()
	return run
}

// freshCacheReplay replays cs with a fresh memo cache for every
// iteration, the loop the synth and mc golden tests run.
func freshCacheReplay(t *testing.T, ctx context.Context, cs core.CaseStudy) replayRun {
	t.Helper()
	var run replayRun
	snippets := append([]*efsm.Snippet(nil), cs.Initial...)
	for iter := 1; ; iter++ {
		sys, vocab, invs, err := cs.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.CompleteCtx(ctx, sys, vocab, snippets, core.Options{Limits: cs.Limits})
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		r, err := efsm.NewRuntime(sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.CheckCtx(ctx, r, invs, cs.MCOpts)
		if err != nil {
			t.Fatal(err)
		}
		run.reports = append(run.reports, *rep)
		run.checks = append(run.checks, res)
		if res.OK {
			run.final = renderSystem(sys)
			return run
		}
		if iter > len(cs.Fixes) {
			t.Fatalf("fixes exhausted after iteration %d", iter)
		}
		snippets = append(snippets, cs.Fixes[iter-1].Snippets...)
	}
}

// TestCaseStudyReplayMatchesFreshCaches holds RunCaseStudyCtx, whose
// iterations share one memo cache, to a replay that gives every iteration
// a fresh one: the same iterations, report counters, model-check results,
// final system and ledger bytes, with more cache hits from the second
// iteration on.
func TestCaseStudyReplayMatchesFreshCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three case studies twice at two sizes")
	}
	// counters drops what a report may differ in: the cache lookups and
	// the durations.
	counters := func(r core.Report) core.Report {
		r.CacheHits, r.CacheMisses = 0, 0
		r.UpdateTime, r.GuardTime, r.Elapsed, r.Utilization = 0, 0, 0, 0
		return r
	}
	violation := func(r *mc.Result) string {
		if r.Violation == nil {
			return ""
		}
		return r.Violation.String()
	}
	for _, n := range []int{2, 3} {
		for _, mk := range []func(int) core.CaseStudy{protocols.CaseStudyA, protocols.CaseStudyB, protocols.CaseStudyC} {
			cs := mk(n)
			t.Run(fmt.Sprintf("%s/n=%d", cs.Name, n), func(t *testing.T) {
				shared := caseStudyLedger(t, cs.Name, func(ctx context.Context) replayRun {
					res, err := core.RunCaseStudyCtx(ctx, cs)
					if err != nil {
						t.Fatal(err)
					}
					var run replayRun
					for _, it := range res.Iterations {
						run.reports = append(run.reports, *it.Synth)
						run.checks = append(run.checks, it.Check)
					}
					run.final = renderSystem(res.Sys)
					return run
				})
				fresh := caseStudyLedger(t, cs.Name, func(ctx context.Context) replayRun {
					return freshCacheReplay(t, ctx, cs)
				})
				if len(shared.reports) != len(fresh.reports) {
					t.Fatalf("%d iterations, fresh caches %d", len(shared.reports), len(fresh.reports))
				}
				for i := range shared.reports {
					s, f := shared.reports[i], fresh.reports[i]
					if counters(s) != counters(f) {
						t.Errorf("iteration %d report %+v, fresh caches %+v", i+1, s, f)
					}
					if i > 0 && s.CacheHits <= f.CacheHits {
						t.Errorf("iteration %d: %d cache hits, fresh caches %d; want more", i+1, s.CacheHits, f.CacheHits)
					}
					sc, fc := shared.checks[i], fresh.checks[i]
					if sc.OK != fc.OK || sc.States != fc.States || sc.Transitions != fc.Transitions ||
						sc.Depth != fc.Depth || violation(sc) != violation(fc) {
						t.Errorf("iteration %d model check %d states, %d transitions, violation %q; fresh caches %d, %d, %q",
							i+1, sc.States, sc.Transitions, violation(sc), fc.States, fc.Transitions, violation(fc))
					}
				}
				if shared.final != fresh.final {
					t.Errorf("final system differs:\n--- shared cache\n%s\n--- fresh caches\n%s", shared.final, fresh.final)
				}
				if !strings.Contains(shared.ledger, `"type":"hole"`) {
					t.Fatalf("thin ledger:\n%.400s", shared.ledger)
				}
				if shared.ledger != fresh.ledger {
					t.Error("ledger differs from the fresh-cache replay's")
				}
			})
		}
	}
}

// TestCompleteCancellation: a pre-cancelled context must abort synthesis
// with a context error rather than completing or hanging.
func TestCompleteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := protocols.MSI(2)
	_, err := core.CompleteCtx(ctx, spec.Sys, spec.Vocab, spec.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 12}})
	if err == nil {
		t.Fatal("cancelled synthesis must fail")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want a context cancellation", err)
	}
}

// ledgerNDJSON completes the protocol with a provenance recorder in the
// context and returns the canonical NDJSON rendering of the ledger.
func ledgerNDJSON(t *testing.T, mk func() *protocols.Spec, workers int, cache *engine.Cache) string {
	t.Helper()
	spec := mk()
	rec := provenance.NewRecorder(spec.Name)
	ctx := provenance.WithRecorder(context.Background(), rec)
	_, err := core.CompleteCtx(ctx, spec.Sys, spec.Vocab, spec.Snippets, core.Options{
		Limits:  synth.Limits{MaxSize: 12},
		Workers: workers,
		Cache:   cache,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var sb strings.Builder
	if err := rec.Ledger().WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestLedgerParity is the provenance acceptance gate: the ledger must be
// byte-identical across worker counts and across cache temperature —
// cold solve, warm memory-tier replay, and disk-tier replay through a
// fresh cache over the same store (which exercises the wire codec's
// trace round-trip).
func TestLedgerParity(t *testing.T) {
	mk := func() *protocols.Spec { return protocols.MSI(2) }

	baseline := ledgerNDJSON(t, mk, 1, engine.NewCache())
	if !strings.Contains(baseline, `"type":"provenance"`) || !strings.Contains(baseline, `"type":"hole"`) {
		t.Fatalf("thin ledger:\n%.400s", baseline)
	}
	for _, workers := range []int{2, 8} {
		if got := ledgerNDJSON(t, mk, workers, engine.NewCache()); got != baseline {
			t.Fatalf("ledger differs at workers=%d", workers)
		}
	}

	// Warm memory tier: same cache, every sub-solve replays from memory.
	shared := engine.NewCache()
	cold := ledgerNDJSON(t, mk, 4, shared)
	if cold != baseline {
		t.Fatal("cold shared-cache ledger differs from baseline")
	}
	warm := ledgerNDJSON(t, mk, 4, shared)
	if warm != baseline {
		t.Fatal("warm memory-tier ledger differs from the cold run")
	}

	// Disk tier: a fresh cache over the same store has an empty memory
	// tier, so every lookup decodes the persisted trace from disk.
	store, err := diskcache.Open(t.TempDir(), diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := ledgerNDJSON(t, mk, 4, engine.NewCacheWithBackend(store)); got != baseline {
		t.Fatal("cold disk-backed ledger differs from baseline")
	}
	if got := ledgerNDJSON(t, mk, 4, engine.NewCacheWithBackend(store)); got != baseline {
		t.Fatal("disk-tier replay ledger differs from baseline")
	}
}
