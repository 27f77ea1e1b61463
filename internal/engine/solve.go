package engine

import (
	"context"
	"errors"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/synth"
)

// growLimits is the retry-with-larger-limits schedule: each retry deepens
// the enumeration (larger expressions), widens the budgets, and doubles
// the CEGIS iteration allowance, so transient "no consistent expression
// within limits" failures caused by tight bounds get a second chance
// without the caller hand-tuning anything.
func growLimits(l synth.Limits) synth.Limits {
	l = l.WithDefaults()
	l.MaxSize += 4
	if l.MaxExprs < 1<<62/4 {
		l.MaxExprs *= 4
	}
	l.MaxIters *= 2
	if l.Timeout > 0 {
		l.Timeout *= 2
	}
	return l
}

// SolveOutcome describes how one SolveConcolic call got its answer: which
// cache tier served it (TierNone when memoization is disabled), how many
// retry attempts were spent, and the wall-clock split between the cache
// lookup and the actual solving. CacheWait + SolveWait is the call's full
// wall time, which is what lets the serving path's access log reconcile a
// job's latency breakdown against its observed elapsed time.
type SolveOutcome struct {
	// Cached reports whether the cache supplied the answer (Tier is then
	// TierMem or TierDisk).
	Cached bool
	// Tier is the cache tier that answered the lookup.
	Tier Tier
	// Retries is the number of extra attempts the retry policy spent.
	Retries int
	// CacheWait is the time spent in the two-tier cache lookup.
	CacheWait time.Duration
	// SolveWait is the time spent in the synthesizer (all attempts).
	SolveWait time.Duration
}

// SolveConcolic is the engine's memoized, retrying front door to
// synth.SolveConcolicCtx. It consults the cache (replaying the original
// solve's stats on a hit, so aggregated reports are cache-invariant),
// solves on a miss, retries with grown limits when the search space was
// exhausted and the retry policy allows, and stores successes.
//
// The returned Stats are the cumulative work of all attempts (or the
// replayed stats on a hit); the SolveOutcome carries the cache tier,
// retry count, and the cache/solve wall-time split. The cache lookup runs
// under an "engine.cache" span (tier recorded as an attribute) and feeds
// the engine.cache.{mem_hits,disk_hits,misses} counters and the
// engine.cache.lookup_ms histogram when ctx carries a metrics registry.
func (e *Engine) SolveConcolic(ctx context.Context, spec SolveSpec) (res expr.Expr, stats synth.Stats, out SolveOutcome, err error) {
	out.Tier = TierNone
	reg := obs.MetricsFrom(ctx)
	var key string
	if e.cfg.Cache != nil {
		// Fetch consults memory first (re-binding the entry's symbols to
		// this spec's world) and then the persistent backend, if any.
		_, cacheSpan := obs.Start(ctx, "engine.cache")
		lookupStart := time.Now()
		re, st, k, tier, ok := e.cfg.Cache.Fetch(spec)
		out.CacheWait = time.Since(lookupStart)
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
			reg.Histogram("engine.cache.lookup_ms").Observe(out.CacheWait)
		}
		if ok {
			out.Cached = true
			return re, st, out, nil
		}
		key = k
	}
	solveStart := time.Now()
	defer func() { out.SolveWait = time.Since(solveStart) }()
	res, stats, out.Retries, err = e.solveAttempts(ctx, spec)
	if err != nil {
		return nil, stats, out, err
	}
	if e.cfg.Cache != nil {
		e.cfg.Cache.Put(key, CacheEntry{Expr: res, Stats: stats})
	}
	return res, stats, out, nil
}

// solveAttempts runs the retry-with-grown-limits schedule, accumulating
// the stats of every attempt. Retry only makes sense when the bounded
// search came up empty; inconsistent example sets, proven-unrealizable
// holes (synth.ErrUnrealizable does not wrap synth.ErrNoExpression, which
// is precisely what makes an impossible hole fail in one attempt instead
// of three escalating ones), and cancellations are final.
func (e *Engine) solveAttempts(ctx context.Context, spec SolveSpec) (res expr.Expr, stats synth.Stats, retries int, err error) {
	attempts := e.cfg.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	limits := spec.Limits
	for a := 0; ; a++ {
		var st synth.Stats
		res, st, err = synth.SolveConcolicCtx(ctx, spec.Problem, spec.Examples, limits)
		stats.Concrete.Enumerated += st.Concrete.Enumerated
		stats.Concrete.Kept += st.Concrete.Kept
		stats.Concrete.Restarts += st.Concrete.Restarts
		stats.Concrete.InterpPruned += st.Concrete.InterpPruned
		if st.Concrete.MaxSizeSeen > stats.Concrete.MaxSizeSeen {
			stats.Concrete.MaxSizeSeen = st.Concrete.MaxSizeSeen
		}
		stats.BankReuses += st.BankReuses
		stats.SMTQueries += st.SMTQueries
		stats.SMTClauses += st.SMTClauses
		stats.Iterations += st.Iterations
		stats.Elapsed += st.Elapsed
		stats.Trace = append(stats.Trace, st.Trace...)
		stats.Unrealizable = stats.Unrealizable || st.Unrealizable
		retries = a
		if err == nil {
			return res, stats, retries, nil
		}
		if a+1 >= attempts || !errors.Is(err, synth.ErrNoExpression) || ctx.Err() != nil {
			return nil, stats, retries, err
		}
		limits = growLimits(limits)
	}
}
