package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is the exported form of a finished span (Duration > 0 for any
// real region) or of an instant mark (Duration == 0, emitted by
// Span.Mark).
type SpanData struct {
	// ID is unique within a Tracer; Parent is the enclosing span's ID, 0
	// for roots.
	ID     uint64
	Parent uint64
	// Name is the span's own name; Path is the slash-joined chain of
	// ancestor names (for aggregation by call position).
	Name string
	Path string
	// Track is the display row (Perfetto tid); the engine assigns one per
	// worker.
	Track    int
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Exporter consumes finished spans and instant marks. Implementations
// must be safe for concurrent use: spans end on every worker goroutine.
type Exporter interface {
	// Span receives a completed span.
	Span(SpanData)
	// Mark receives a zero-duration instant event.
	Mark(SpanData)
	// Flush finalizes output (writes buffered files, prints summaries).
	// It is called once, after the traced work completes.
	Flush() error
}

// Tracer creates spans and fans finished ones out to its exporters. The
// exporter set is fixed at construction, so reads need no lock. Tracers
// derived with Child share one span-ID counter, so IDs stay unique
// across a whole tracer family even when spans land in shared exporters.
type Tracer struct {
	exporters []Exporter
	ids       *atomic.Uint64
	// Epoch is the zero point exporters measure timestamps against.
	Epoch time.Time
}

// NewTracer builds a tracer exporting to the given exporters, with Epoch
// set to now.
func NewTracer(exporters ...Exporter) *Tracer {
	return &Tracer{exporters: exporters, ids: new(atomic.Uint64), Epoch: time.Now()}
}

// Child derives a tracer that exports to the parent's exporters plus
// extra, sharing the parent's span-ID counter and epoch. The job server
// uses this to tee each job's spans into a per-job ring while the
// session-wide exporters (flight recorder, live SSE) keep seeing them.
func (t *Tracer) Child(extra ...Exporter) *Tracer {
	if t == nil {
		return nil
	}
	exps := make([]Exporter, 0, len(t.exporters)+len(extra))
	exps = append(exps, t.exporters...)
	exps = append(exps, extra...)
	return &Tracer{exporters: exps, ids: t.ids, Epoch: t.Epoch}
}

// Exporters returns the tracer's exporter set (shared slice; callers
// must not mutate it). Nil-safe.
func (t *Tracer) Exporters() []Exporter {
	if t == nil {
		return nil
	}
	return t.exporters
}

// Flush flushes every exporter in order and returns the first error.
func (t *Tracer) Flush() error {
	var first error
	for _, e := range t.exporters {
		if err := e.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *Tracer) newSpan(name string, parent *Span, track int, attrs []Attr) *Span {
	sp := &Span{tr: t, id: t.ids.Add(1), name: name, track: track, start: time.Now()}
	if len(attrs) > 0 {
		sp.attrs = append(sp.attrs, attrs...)
	}
	if parent != nil {
		sp.parent = parent.id
		sp.path = parent.path + "/" + name
	} else {
		sp.path = name
	}
	return sp
}

// Span is one timed region of the pipeline. A nil *Span (what Start
// returns when tracing is disabled) is a valid no-op receiver for every
// method. A span belongs to the goroutine that started it: SetAttr must
// not race with End.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	path   string
	track  int
	start  time.Time
	attrs  []Attr
	ended  atomic.Bool
}

// ID returns the span's ID, unique within its tracer family; 0 for a nil
// span. Marks and child spans name their parent by it.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches attributes to the span; exporters see them on End.
// Typical use is recording work counters (conflicts, candidates) known
// only when the region finishes.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Mark emits an instant event parented to s — e.g. the model checker's
// periodic states/sec heartbeat. Unlike SetAttr, Mark is safe to call
// from any goroutine (the model checker's wall-clock heartbeat ticker
// marks the BFS span it did not start): it reads only immutable span
// fields, and a mark racing with End is dropped best-effort rather than
// delivered after the span closed.
func (s *Span) Mark(name string, attrs ...Attr) {
	if s == nil || s.ended.Load() {
		return
	}
	data := SpanData{ID: s.tr.ids.Add(1), Parent: s.id, Name: name,
		Path: s.path + "/" + name, Track: s.track, Start: time.Now(), Attrs: attrs}
	for _, e := range s.tr.exporters {
		e.Mark(data)
	}
}

// Emit exports a pre-timed completed child span of s — a region whose
// start and duration were measured before any span (or even the tracer)
// existed, such as HTTP admission work that precedes the job's tracer or
// queue wait measured by the worker that dequeues. Like Mark it is safe
// from any goroutine and dropped if s already ended.
func (s *Span) Emit(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil || s.ended.Load() {
		return
	}
	data := SpanData{ID: s.tr.ids.Add(1), Parent: s.id, Name: name,
		Path: s.path + "/" + name, Track: s.track, Start: start, Duration: d, Attrs: attrs}
	for _, e := range s.tr.exporters {
		e.Span(data)
	}
}

// End completes the span and exports it. Extra Ends are no-ops, so a
// deferred End composes with an explicit one on the happy path.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	data := SpanData{ID: s.id, Parent: s.parent, Name: s.name, Path: s.path,
		Track: s.track, Start: s.start, Duration: time.Since(s.start), Attrs: s.attrs}
	for _, e := range s.tr.exporters {
		e.Span(data)
	}
}

// CollectExporter buffers finished spans and marks in memory; it is the
// exporter for tests and in-process consumers.
type CollectExporter struct {
	mu    sync.Mutex
	spans []SpanData
	marks []SpanData
}

// NewCollect builds an empty collecting exporter.
func NewCollect() *CollectExporter { return &CollectExporter{} }

// Span implements Exporter.
func (c *CollectExporter) Span(d SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, d)
}

// Mark implements Exporter.
func (c *CollectExporter) Mark(d SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.marks = append(c.marks, d)
}

// Flush implements Exporter (no-op).
func (c *CollectExporter) Flush() error { return nil }

// Spans returns a copy of the collected spans in completion order.
func (c *CollectExporter) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

// Marks returns a copy of the collected instant marks.
func (c *CollectExporter) Marks() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.marks...)
}
