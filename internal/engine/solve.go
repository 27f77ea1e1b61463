package engine

import (
	"context"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/synth"
)

// Solve is the memoized front door to synth.SolveConcolicCtx. It
// consults the cache (replaying the original solve's stats on a hit, so
// aggregated reports are cache-invariant), solves once on a miss, and
// stores successes. Failures, including synth.ErrUnrealizable, reach the
// caller unchanged and are not cached. A nil cache solves without
// memoization.
//
// The returned Stats are the solve's work (or the replayed stats on a
// hit), and the Tier names the cache tier that answered (TierNone on a
// nil cache). The lookup runs under an "engine.cache" span (tier recorded
// as an attribute) and feeds the engine.cache.{mem_hits,disk_hits,misses}
// counters and the engine.cache.lookup_ms histogram when ctx carries a
// metrics registry; on a miss the solve runs under its synth.cegis span.
func (c *Cache) Solve(ctx context.Context, spec SolveSpec) (expr.Expr, synth.Stats, Tier, error) {
	tier, key := TierNone, ""
	if c != nil {
		_, cacheSpan := obs.Start(ctx, "engine.cache")
		lookupStart := time.Now()
		res, stats, k, t, ok := c.Fetch(spec)
		lookup := time.Since(lookupStart)
		cacheSpan.SetAttr(obs.Str("tier", string(t)))
		cacheSpan.End()
		if reg := obs.MetricsFrom(ctx); reg != nil {
			switch t {
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
			return res, stats, t, nil
		}
		tier, key = t, k
	}
	res, stats, err := synth.SolveConcolicCtx(ctx, spec.Problem, spec.Examples, spec.Limits)
	if err != nil {
		return nil, stats, tier, err
	}
	if c != nil {
		c.Put(key, CacheEntry{Expr: res, Stats: stats})
	}
	return res, stats, tier, nil
}
