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
