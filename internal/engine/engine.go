// Package engine runs the expression-inference jobs that §5 skeleton
// completion decomposes into (the per-primed-variable and per-guard
// sub-problems) on a bounded worker pool, with cooperative cancellation,
// and memoizes their solves (Cache.Solve). Its telemetry is its spans:
// one engine.run per Run and one engine.job per executed job, each
// opened by a start mark, and one engine.cache per memo-cache lookup.
//
// A plan is a list of chains, completion's only dependencies: within a
// (state, event) group each guard is constrained by the guards before it
// (§5.2), and every update hole stands alone (§5.1). Workers claim whole
// chains in plan order and run each chain's jobs in order, so with one
// worker the engine executes jobs in exactly plan order, byte-identical to
// a hand-written sequential loop, while with more workers chains
// interleave; job results are functions of their declared inputs only, so
// the computed expressions are identical at every worker count.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/obs"
)

// Job is one schedulable unit of work: typically a single SolveConcolic
// problem, but any closure honoring the context works. Jobs are created by
// the planner, grouped into chains, and passed to Run; the zero value of
// the result fields is correct.
type Job struct {
	// Label identifies the job in its span (e.g. "guard Dir(EXCLUSIVE,ReqNet)#1").
	Label string
	// Kind classifies the job ("guard", "update", "check", ...).
	Kind string
	// Run does the work. It must honor ctx cancellation. ctx carries the
	// job's engine.job span (obs.SpanFrom), where Run may record the
	// job's counters as attributes.
	Run func(ctx context.Context) error

	// Results, set by the engine.

	// Err is the job's outcome: nil on success, Run's error when it
	// failed, ErrSkipped when an earlier job of its chain failed, the
	// context's error when the run was cancelled before it started.
	Err error
	// Duration is the wall-clock time spent in Run.
	Duration time.Duration

	started bool
}

// ErrSkipped marks a job that never ran because an earlier job of its
// chain failed.
var ErrSkipped = errors.New("engine: job skipped: dependency failed")

// RunStats summarizes one Run for its caller. Failed counts the jobs
// whose Run returned an error; Skipped counts the jobs that never
// started, whatever stopped them.
type RunStats struct {
	Workers     int
	Jobs        int
	Failed      int
	Skipped     int
	Utilization float64
}

// Run executes the plan on workers goroutines (values <= 0 mean 1).
// Workers claim whole chains in plan order and run each chain's jobs in
// order. The first job error cancels the run: the rest of its chain is
// skipped, and jobs of other chains not yet started find the context
// done. Run blocks until every job has either run or been skipped, and
// returns the first error in plan order (preferring real failures over
// cancellation and skip markers), or nil.
func Run(ctx context.Context, workers int, chains [][]*Job) (RunStats, error) {
	if workers <= 0 {
		workers = 1
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	stats := RunStats{Workers: workers}
	for _, chain := range chains {
		for _, j := range chain {
			j.Err, j.Duration, j.started = nil, 0, false
		}
		stats.Jobs += len(chain)
	}

	runAttrs := []obs.Attr{obs.Int("workers", workers), obs.Int("jobs", stats.Jobs)}
	ctx, runSpan := obs.Start(ctx, "engine.run", runAttrs...)
	runSpan.Mark("engine.run.start", runAttrs...)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chains) {
					return
				}
				runChain(ctx, cancel, chains[i], worker)
			}
		}(w)
	}
	wg.Wait()

	var busy time.Duration
	var first, firstAny error
	for _, chain := range chains {
		for _, j := range chain {
			busy += j.Duration
			if j.Err == nil {
				continue
			}
			if j.started {
				stats.Failed++
			} else {
				stats.Skipped++
			}
			if firstAny == nil {
				firstAny = j.Err
			}
			if first == nil && !errors.Is(j.Err, ErrSkipped) && !errors.Is(j.Err, context.Canceled) {
				first = j.Err
			}
		}
	}
	if wall := time.Since(start); wall > 0 {
		stats.Utilization = float64(busy) / (float64(wall) * float64(workers))
	}
	err := first
	if err == nil {
		err = firstAny
	}
	runSpan.SetAttr(obs.Int("failed", stats.Failed), obs.Int("skipped", stats.Skipped),
		obs.Float("utilization", stats.Utilization))
	if err != nil {
		runSpan.SetAttr(obs.Str("error", err.Error()))
	}
	runSpan.End()
	obs.MetricsFrom(ctx).Counter("engine.jobs").Add(int64(stats.Jobs))
	return stats, err
}

// runChain runs one chain's jobs in order on one worker. A job after a
// failed one is skipped, a job that finds the run cancelled never starts,
// and a failure cancels the run (fail fast: stop in-flight siblings).
func runChain(ctx context.Context, cancel context.CancelFunc, chain []*Job, worker int) {
	for i, j := range chain {
		switch {
		case i > 0 && chain[i-1].Err != nil:
			j.Err = fmt.Errorf("%w (%s)", ErrSkipped, chain[i-1].Label)
		case ctx.Err() != nil:
			j.Err = ctx.Err()
		default:
			j.started = true
			if j.Err = execute(ctx, j, worker); j.Err != nil {
				cancel()
			}
		}
	}
}

// execute runs one job under an engine.job span. The span's start mark
// names the job and its run (the enclosing engine.run span), so a live
// view can list the job while it runs; Run records the job's counters on
// the span itself.
func execute(ctx context.Context, j *Job, worker int) error {
	// Each worker gets its own display track, so concurrent jobs render
	// as parallel rows in Perfetto and never overlap within a row.
	run := obs.SpanFrom(ctx)
	jctx := obs.WithTrack(ctx, worker+1)
	jctx, span := obs.Start(jctx, "engine.job",
		obs.Str("job", j.Label), obs.Str("kind", j.Kind), obs.Int("worker", worker+1))
	span.Mark("engine.job.start", obs.Str("job", j.Label), obs.Str("kind", j.Kind),
		obs.Int64("run", int64(run.ID())))
	start := time.Now()
	err := j.Run(jctx)
	j.Duration = time.Since(start)
	if err != nil {
		span.SetAttr(obs.Str("error", err.Error()))
	}
	span.End()
	return err
}
