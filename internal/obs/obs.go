// Package obs is the pipeline-wide observability layer: hierarchical
// trace spans propagated through context.Context, a low-overhead metrics
// registry (atomic counters and latency histograms), exporters for
// NDJSON event streams, Chrome trace-event JSON (loadable in Perfetto),
// and human-readable end-of-run summaries, plus CPU/heap/pprof profiling
// hooks for the CLIs.
//
// The paper's evaluation (§7, Table 3 / Figure 5) is built on per-phase
// counters — enumeration tiers, SMT queries, SAT conflicts, model-checker
// states/sec. The engine.job span carries those numbers per job; the
// spans nested under it explain where the time inside a job goes, and
// this package is the substrate every performance change reports through.
//
// # Design
//
// Everything rides on one context value: a single Value lookup recovers
// the tracer, the enclosing span, the metrics registry, and the display
// track. When no tracer is installed, Start returns a nil *Span, every
// method on which is a no-op — the disabled hot path costs one context
// lookup and one branch, which benchmarks show is unmeasurable against
// real solver work (see internal/synth's benchmarks).
//
// Span taxonomy (parent → child):
//
//	engine.run                  one synthesis engine Run
//	  engine.run.start (mark)   the run's plan size, as it starts
//	  engine.job                one inference job (track = worker)
//	    engine.job.start (mark) the job's label, kind and run, as it starts
//	    synth.cegis             one SolveConcolic call
//	      synth.iteration       one CEGIS iteration
//	        synth.enumerate     one SolveConcrete call
//	          synth.size        one enumeration size tier
//	        smt.solve           one SMT query
//	          smt.encode        bit-blasting to CNF
//	          sat.search        the CDCL search
//	mc.bfs                      one model-checking run
//	  mc.progress (mark)        periodic states/sec heartbeat
//
// Metric taxonomy: counters synth.solves, synth.cegis_iterations,
// synth.candidates, synth.kept, smt.queries, smt.sat, smt.unsat,
// smt.unknown, smt.sat_vars, smt.clauses, sat.conflicts, sat.decisions,
// sat.propagations, mc.runs, mc.states, mc.transitions, engine.jobs;
// histograms synth.solve_ms, smt.solve_ms, mc.check_ms.
package obs

import (
	"context"
)

// Attr is one span, event, or record attribute. Values are restricted by
// the typed constructors to int64, float64, string, and bool so every
// exporter can render them.
type Attr struct {
	Key   string
	Value any
}

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(k string, v int64) Attr { return Attr{k, v} }

// Float builds a floating-point attribute.
func Float(k string, v float64) Attr { return Attr{k, v} }

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{k, v} }

// Bool builds a Boolean attribute.
func Bool(k string, v bool) Attr { return Attr{k, v} }

// ctxKey is the single context key; its payload carries every piece of
// observability state so the hot path pays for one Value lookup only.
type ctxKey struct{}

type ctxData struct {
	tracer  *Tracer
	span    *Span
	metrics *Registry
	track   int
}

func dataFrom(ctx context.Context) *ctxData {
	d, _ := ctx.Value(ctxKey{}).(*ctxData)
	return d
}

// WithTracer returns a context carrying the tracer. Spans started below
// it are exported through the tracer's exporters.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	d := &ctxData{tracer: tr}
	if prev := dataFrom(ctx); prev != nil {
		d.span = prev.span
		d.metrics = prev.metrics
		d.track = prev.track
	}
	return context.WithValue(ctx, ctxKey{}, d)
}

// WithMetrics returns a context carrying the metrics registry.
// Instrumented code recovers it with MetricsFrom; a nil registry (or a
// context without one) disables recording at the cost of a nil check.
func WithMetrics(ctx context.Context, r *Registry) context.Context {
	d := &ctxData{metrics: r}
	if prev := dataFrom(ctx); prev != nil {
		d.tracer = prev.tracer
		d.span = prev.span
		d.track = prev.track
	}
	return context.WithValue(ctx, ctxKey{}, d)
}

// MetricsFrom returns the registry carried by the context, or nil. All
// Registry, Counter, and Histogram methods are nil-safe, so callers can
// use the result unconditionally.
func MetricsFrom(ctx context.Context) *Registry {
	if d := dataFrom(ctx); d != nil {
		return d.metrics
	}
	return nil
}

// WithTrack returns a context whose future spans render on display track
// n (a row in Perfetto; the engine assigns one track per worker so
// concurrent jobs never overlap within a row). Without a tracer this is
// a no-op returning ctx unchanged.
func WithTrack(ctx context.Context, n int) context.Context {
	d := dataFrom(ctx)
	if d == nil || d.tracer == nil {
		return ctx
	}
	nd := *d
	nd.track = n
	return context.WithValue(ctx, ctxKey{}, &nd)
}

// Start begins a span named name as a child of the context's current
// span and returns a derived context carrying it. Without a tracer in
// ctx it returns (ctx, nil); a nil *Span is a valid no-op receiver for
// every Span method, so call sites need no guards.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	d := dataFrom(ctx)
	if d == nil || d.tracer == nil {
		return ctx, nil
	}
	sp := d.tracer.newSpan(name, d.span, d.track, attrs)
	nd := *d
	nd.span = sp
	return context.WithValue(ctx, ctxKey{}, &nd), sp
}

// SpanFrom returns the context's current span, or nil. Useful for
// attaching attributes or marks to an enclosing span without starting a
// new one.
func SpanFrom(ctx context.Context) *Span {
	if d := dataFrom(ctx); d != nil {
		return d.span
	}
	return nil
}

// TracerFrom returns the tracer carried by the context, or nil. The job
// server uses it to derive per-job child tracers from the session tracer.
func TracerFrom(ctx context.Context) *Tracer {
	if d := dataFrom(ctx); d != nil {
		return d.tracer
	}
	return nil
}
