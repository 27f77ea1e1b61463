package engine

import (
	"context"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/synth"
)

// SolveOutcome describes how one SolveConcolic call got its answer: which
// cache tier served it (TierNone when memoization is disabled). Where the
// call's time went is in its spans: the engine.cache lookup and, on a
// miss, the synth.cegis solve.
type SolveOutcome struct {
	// Tier is the cache tier that answered the lookup: TierMem or
	// TierDisk when the cache supplied the answer.
	Tier Tier
}

// SolveConcolic is the engine's memoized front door to
// synth.SolveConcolicCtx. It consults the cache (replaying the original
// solve's stats on a hit, so aggregated reports are cache-invariant),
// solves once on a miss, and stores successes. Failures, including
// synth.ErrUnrealizable, reach the caller unchanged and are not cached.
//
// The returned Stats are the solve's work (or the replayed stats on a
// hit); the SolveOutcome carries the cache tier. The cache lookup runs
// under an "engine.cache" span (tier recorded as an attribute) and feeds
// the engine.cache.{mem_hits,disk_hits,misses} counters and the
// engine.cache.lookup_ms histogram when ctx carries a metrics registry.
func (e *Engine) SolveConcolic(ctx context.Context, spec SolveSpec) (res expr.Expr, stats synth.Stats, out SolveOutcome, err error) {
	out.Tier = TierNone
	reg := obs.MetricsFrom(ctx)
	var key string
	if e.cfg.Cache != nil {
		// Fetch consults memory first and then the persistent backend, if
		// any, binding either tier's entry into this spec's world.
		_, cacheSpan := obs.Start(ctx, "engine.cache")
		lookupStart := time.Now()
		re, st, k, tier, ok := e.cfg.Cache.Fetch(spec)
		lookup := time.Since(lookupStart)
		out.Tier = tier
		cacheSpan.SetAttr(obs.Str("tier", string(tier)))
		cacheSpan.End()
		if reg != nil {
			switch tier {
			case TierMem:
				reg.Counter("engine.cache.mem_hits").Inc()
			case TierDisk:
				reg.Counter("engine.cache.disk_hits").Inc()
			default:
				reg.Counter("engine.cache.misses").Inc()
			}
			reg.Histogram("engine.cache.lookup_ms").Observe(lookup)
		}
		if ok {
			return re, st, out, nil
		}
		key = k
	}
	res, stats, err = synth.SolveConcolicCtx(ctx, spec.Problem, spec.Examples, spec.Limits)
	if err != nil {
		return nil, stats, out, err
	}
	if e.cfg.Cache != nil {
		e.cfg.Cache.Put(key, CacheEntry{Expr: res, Stats: stats})
	}
	return res, stats, out, nil
}
