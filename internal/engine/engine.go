// Package engine is a concurrent synthesis-job engine: it executes a DAG
// of expression-inference jobs (the per-primed-variable and per-guard
// sub-problems that §5 skeleton completion decomposes into) on a bounded
// worker pool, with cooperative cancellation and cross-job memoization.
// Its telemetry is its spans: one engine.run per Run and one engine.job
// per executed job, each opened by a start mark, and one engine.cache per
// memo-cache lookup.
//
// Scheduling is deterministic by construction: jobs are identified by
// their position in the plan (the slice passed to Run), dependencies may
// only point backwards, and the ready queue is a min-heap on plan index.
// With Workers == 1 the engine therefore executes jobs in exactly plan
// order — byte-identical to a hand-written sequential loop — while with
// more workers any topological interleaving may occur; job results are
// functions of their declared inputs only, so the computed expressions are
// identical at every worker count.
package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"transit/internal/obs"
)

// Job is one schedulable unit of work: typically a single SolveConcolic
// problem, but any closure honoring the context works. Jobs are created by
// the planner, wired with Deps, and passed to Engine.Run; the zero value
// of the bookkeeping fields is correct.
type Job struct {
	// Label identifies the job in its span (e.g. "guard Dir(EXCLUSIVE,ReqNet)#1").
	Label string
	// Kind classifies the job ("guard", "update", "check", ...).
	Kind string
	// Deps are jobs that must complete before this one starts. Every dep
	// must appear earlier than the job itself in the slice given to Run.
	Deps []*Job
	// Run does the work. It must honor ctx cancellation. ctx carries the
	// job's engine.job span (obs.SpanFrom), where Run may record the
	// job's counters as attributes.
	Run func(ctx context.Context) error

	// Results, set by the engine.

	// Err is the job's outcome: nil on success, ErrSkipped when a
	// dependency failed, the context's error when cancelled before start.
	Err error
	// Duration is the wall-clock time spent in Run.
	Duration time.Duration

	id      int
	pending int
	revDeps []*Job
}

// ErrSkipped marks a job that never ran because a dependency failed.
var ErrSkipped = errors.New("engine: job skipped: dependency failed")

// Config configures an Engine.
type Config struct {
	// Workers is the pool size; values <= 0 mean 1. Workers == 1
	// reproduces sequential plan-order execution exactly.
	Workers int
	// Cache is the cross-job memoization cache; nil disables memoization.
	Cache *Cache
}

// Engine executes job DAGs. It is safe to reuse across Runs (the cache
// persists across them); a single Run is itself concurrent internally, but
// distinct Runs on one Engine must not overlap.
type Engine struct {
	cfg Config

	// run-scoped state
	mu        sync.Mutex
	cond      *sync.Cond
	ready     jobHeap
	remaining int
	busy      time.Duration
}

// New creates an engine from a config.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	e := &Engine{cfg: cfg}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Workers reports the configured pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Cache returns the engine's memoization cache (nil when disabled).
func (e *Engine) Cache() *Cache { return e.cfg.Cache }

// RunStats summarizes one Run for its caller.
type RunStats struct {
	Workers     int
	Jobs        int
	Failed      int
	Skipped     int
	Utilization float64
}

// Run executes the DAG. Jobs must be topologically ordered: every Dep of
// jobs[i] must be some jobs[j] with j < i. Run blocks until every job has
// either run or been skipped, and returns the first error in plan order
// (preferring real failures over cancellation/skip markers), or nil.
func (e *Engine) Run(ctx context.Context, jobs []*Job) (RunStats, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Index the plan and wire reverse dependencies.
	for i, j := range jobs {
		j.id = i
		j.pending = len(j.Deps)
		j.revDeps = nil
		j.Err = nil
	}
	for _, j := range jobs {
		for _, d := range j.Deps {
			if d.id >= j.id || jobs[d.id] != d {
				return RunStats{}, fmt.Errorf("engine: job %d (%s) depends on job not planned before it", j.id, j.Label)
			}
			d.revDeps = append(d.revDeps, j)
		}
	}

	e.mu.Lock()
	e.ready = e.ready[:0]
	e.remaining = len(jobs)
	e.busy = 0
	for _, j := range jobs {
		if j.pending == 0 {
			heap.Push(&e.ready, j)
		}
	}
	e.mu.Unlock()

	runAttrs := []obs.Attr{obs.Int("workers", e.cfg.Workers), obs.Int("jobs", len(jobs))}
	ctx, runSpan := obs.Start(ctx, "engine.run", runAttrs...)
	runSpan.Mark("engine.run.start", runAttrs...)

	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			e.work(ctx, cancel, worker)
		}(w)
	}
	wg.Wait()

	stats := RunStats{Workers: e.cfg.Workers, Jobs: len(jobs)}
	if wall := time.Since(start); wall > 0 {
		stats.Utilization = float64(e.busy) / (float64(wall) * float64(e.cfg.Workers))
	}
	var first, firstAny error
	for _, j := range jobs {
		if j.Err == nil {
			continue
		}
		if errors.Is(j.Err, ErrSkipped) {
			stats.Skipped++
		} else {
			stats.Failed++
		}
		if firstAny == nil {
			firstAny = j.Err
		}
		if first == nil && !errors.Is(j.Err, ErrSkipped) && !errors.Is(j.Err, context.Canceled) {
			first = j.Err
		}
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

// work is one worker's loop: pop the lowest-id ready job, execute it (or
// skip it when a dependency failed / the run is cancelled), release its
// dependents.
func (e *Engine) work(ctx context.Context, cancel context.CancelFunc, worker int) {
	for {
		e.mu.Lock()
		for len(e.ready) == 0 && e.remaining > 0 {
			e.cond.Wait()
		}
		if e.remaining == 0 {
			e.mu.Unlock()
			e.cond.Broadcast()
			return
		}
		j := heap.Pop(&e.ready).(*Job)
		e.mu.Unlock()

		j.Err = e.execute(ctx, j, worker)
		if j.Err != nil {
			cancel() // fail fast: stop in-flight siblings
		}

		e.mu.Lock()
		e.remaining--
		e.busy += j.Duration
		for _, d := range j.revDeps {
			d.pending--
			if d.pending == 0 {
				heap.Push(&e.ready, d)
			}
		}
		e.mu.Unlock()
		e.cond.Broadcast()
	}
}

// execute runs one job, honoring skip markers and cancellation, under an
// engine.job span. The span's start mark names the job and its run (the
// enclosing engine.run span), so a live view can list the job while it
// runs; Run records the job's counters on the span itself.
func (e *Engine) execute(ctx context.Context, j *Job, worker int) error {
	for _, d := range j.Deps {
		if d.Err != nil {
			return fmt.Errorf("%w (%s)", ErrSkipped, d.Label)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
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

// jobHeap is a min-heap of jobs on plan index, so ready jobs are claimed
// in plan order (the whole determinism story at Workers == 1).
type jobHeap []*Job

func (h jobHeap) Len() int            { return len(h) }
func (h jobHeap) Less(i, j int) bool  { return h[i].id < h[j].id }
func (h jobHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
