package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"transit/internal/core"
	"transit/internal/engine"
	"transit/internal/obs"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// EngineRow compares serial (one worker) against parallel synthesis of one
// protocol through the job engine, plus the effect of the cross-job memo
// cache on a warm rerun.
type EngineRow struct {
	Protocol    string        `json:"protocol"`
	NumCaches   int           `json:"num_caches"`
	Jobs        int           `json:"jobs"`
	Workers     int           `json:"workers"`
	SerialTime  time.Duration `json:"-"`
	Parallel    time.Duration `json:"-"`
	WarmTime    time.Duration `json:"-"`
	SerialMS    float64       `json:"serial_ms"`
	ParallelMS  float64       `json:"parallel_ms"`
	WarmMS      float64       `json:"warm_cache_ms"`
	Speedup     float64       `json:"speedup"`
	Utilization float64       `json:"utilization"`
	CacheHits   int           `json:"cache_hits"`
	CacheMisses int           `json:"cache_misses"`
	HitRate     float64       `json:"cache_hit_rate"`
	// Work counters from the parallel run's obs metrics registry (the
	// same counters -stats-summary reports), not re-derived from spans.
	SMTQueries   int64 `json:"smt_queries"`
	SATConflicts int64 `json:"sat_conflicts"`
	Candidates   int64 `json:"candidates"`
}

// engineSpecs builds fresh copies of the four case-study protocols; each
// run must synthesize into a pristine System because Complete installs the
// completed transitions in place.
func engineSpecs(numCaches int) []func() *protocols.Spec {
	return []func() *protocols.Spec{
		func() *protocols.Spec { return protocols.VI(numCaches) },
		func() *protocols.Spec { return protocols.MSI(numCaches) },
		func() *protocols.Spec { return protocols.MESI(numCaches) },
		func() *protocols.Spec { return protocols.Origin(numCaches, true) },
	}
}

// EngineBench synthesizes VI, MSI, MESI, and Origin three ways — one
// worker (the historical sequential order), `workers` workers, and one
// more parallel run against the warm memo cache of the second — and
// reports wall-clock plus cache statistics for each protocol. Serial and
// parallel runs produce identical EFSMs (the engine guarantees worker-
// count invariance); only the wall clock may differ.
func EngineBench(numCaches, workers int) ([]EngineRow, error) {
	return EngineBenchCtx(context.Background(), numCaches, workers)
}

// EngineBenchCtx is EngineBench under a context. Any tracer on the
// context is kept, so engine runs show up in -trace output; the metrics
// registry is replaced per run so each row's counters stay isolated.
func EngineBenchCtx(ctx context.Context, numCaches, workers int) ([]EngineRow, error) {
	if workers < 1 {
		workers = 1
	}
	limits := synth.Limits{MaxSize: 12}
	var rows []EngineRow
	for _, mk := range engineSpecs(numCaches) {
		run := func(w int, cache *engine.Cache) (*core.Report, *obs.Registry, time.Duration, error) {
			spec := mk()
			// Each run gets a fresh metrics registry threaded through the
			// context; the row's work counters read it back directly.
			reg := obs.NewRegistry()
			rctx := obs.WithMetrics(ctx, reg)
			t0 := time.Now()
			rep, err := core.CompleteCtx(rctx, spec.Sys, spec.Vocab, spec.Snippets,
				core.Options{Limits: limits, Workers: w, Cache: cache})
			if err != nil {
				return nil, nil, 0, fmt.Errorf("bench: %s (workers=%d): %w", spec.Name, w, err)
			}
			return rep, reg, time.Since(t0), nil
		}

		_, _, serial, err := run(1, engine.NewCache())
		if err != nil {
			return nil, err
		}
		warmCache := engine.NewCache()
		rep, reg, par, err := run(workers, warmCache)
		if err != nil {
			return nil, err
		}
		repWarm, _, warm, err := run(workers, warmCache)
		if err != nil {
			return nil, err
		}

		name := mk().Name
		row := EngineRow{
			Protocol:    name,
			NumCaches:   numCaches,
			Jobs:        rep.Jobs,
			Workers:     workers,
			SerialTime:  serial,
			Parallel:    par,
			WarmTime:    warm,
			SerialMS:    ms(serial),
			ParallelMS:  ms(par),
			WarmMS:      ms(warm),
			Utilization: rep.Utilization,
			CacheHits:   repWarm.CacheHits,
			CacheMisses: repWarm.CacheMisses,

			SMTQueries:   reg.Get("smt.queries"),
			SATConflicts: reg.Get("sat.conflicts"),
			Candidates:   reg.Get("synth.candidates"),
		}
		if par > 0 {
			row.Speedup = float64(serial) / float64(par)
		}
		if lookups := repWarm.CacheHits + repWarm.CacheMisses; lookups > 0 {
			row.HitRate = float64(repWarm.CacheHits) / float64(lookups)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// FormatEngine renders the serial-vs-parallel comparison.
func FormatEngine(rows []EngineRow) string {
	var sb strings.Builder
	sb.WriteString("Engine: serial vs. parallel synthesis (identical EFSMs, wall-clock only)\n")
	fmt.Fprintf(&sb, "%-9s %7s %5s %8s | %9s %9s %8s %5s | %9s %6s %6s %8s | %8s %9s %10s\n",
		"Protocol", "Caches", "Jobs", "Workers",
		"Serial", "Parallel", "Speedup", "Util",
		"WarmCache", "Hits", "Miss", "HitRate",
		"SMT", "Conflicts", "Candidates")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %7d %5d %8d | %9s %9s %7.2fx %5.2f | %9s %6d %6d %7.0f%% | %8d %9d %10d\n",
			r.Protocol, r.NumCaches, r.Jobs, r.Workers,
			r.SerialTime.Round(time.Millisecond), r.Parallel.Round(time.Millisecond),
			r.Speedup, r.Utilization,
			r.WarmTime.Round(time.Millisecond), r.CacheHits, r.CacheMisses, 100*r.HitRate,
			r.SMTQueries, r.SATConflicts, r.Candidates)
	}
	sb.WriteString("(speedup is serial/parallel; warm-cache reruns the parallel run against the\n populated memo cache, so its hit rate shows sub-problem reuse; SMT/Conflicts/\n Candidates come from the parallel run's metrics registry)\n")
	return sb.String()
}

// WriteEngineArtifact writes the comparison as a JSON artifact
// (BENCH_engine.json by convention) for machine consumption.
func WriteEngineArtifact(path string, workers int, rows []EngineRow) error {
	return WriteArtifact(path, NewHeader("engine_serial_vs_parallel", workers),
		map[string]any{"rows": rows})
}
