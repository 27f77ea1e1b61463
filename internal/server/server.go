// Package server is the synthesis-as-a-service layer: a job server that
// exposes the engine's two entry points — SolveConcolic on a wire-encoded
// solve spec, and whole-skeleton completion on TRANSIT source — over an
// HTTP/JSON API, in front of one shared memoization cache (optionally
// disk-backed, so answers persist across jobs, clients, and restarts).
//
// The request path is: per-client token-bucket rate limiting, then
// in-flight dedup on the engine's canonical structural key (a resubmit of
// a queued or running problem joins the existing job instead of spawning
// a duplicate), then a bounded admission queue drained by a fixed worker
// pool. Each job carries its own event bus; subscribers replay the
// history and then follow the job's state changes and the closes of its
// engine spans as SSE.
//
// The server itself is HTTP-framework-free: it exposes handlers that the
// caller mounts on a mux — in cmd/transit they share the live
// introspection server's address, so /metrics, /runs, and /v1/jobs are
// one endpoint.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/engine"
	"transit/internal/engine/diskcache"
	"transit/internal/obs"
	"transit/internal/obs/serve"
)

// Config configures a job server. The zero value works: an in-memory
// cache, 2 workers, a 64-deep queue, and no rate limiting.
type Config struct {
	// Cache is the shared memoization cache consulted and populated by
	// every job; give it a disk backend to persist across restarts. Nil
	// gets a fresh in-memory cache.
	Cache *engine.Cache
	// MaxInflight is the worker-pool size: how many jobs run at once.
	// Values <= 0 mean 2.
	MaxInflight int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with 503. Values <= 0 mean 64.
	QueueDepth int
	// Rate is the per-client token-bucket refill rate in requests per
	// second; 0 disables rate limiting. Burst is the bucket size
	// (defaults to max(1, ceil(Rate))).
	Rate  float64
	Burst int
	// JobTimeout bounds each job's run; 0 means none.
	JobTimeout time.Duration
	// Workers is the core worker pool size of completion jobs. It is an
	// execution detail: excluded from dedup keys, invisible in results.
	Workers int
	// Metrics, when non-nil, receives the server counters (submissions,
	// dedup hits, rejections), the queue-depth and worker gauges, the
	// queue-wait/service-time histograms and, unless BaseContext brings
	// its own registry, the engine.cache.* lookup counters.
	Metrics *obs.Registry
	// BaseContext, when non-nil, parents every job context. cmd/transit
	// threads the observability session through it, so job spans reach the
	// flight recorder and solver counters reach /metrics.
	BaseContext context.Context
	// NoTrace disables per-job tracing: no trace IDs are assigned, no
	// per-job span rings are kept, a job's event stream carries no span
	// lines, and GET /v1/jobs/{id}/trace returns 404. It saves the rings'
	// memory only: every job still runs under a tracer, whose spans give
	// its cache traffic and cache/solve latency split.
	NoTrace bool
	// AccessLog, when non-nil, receives each finished job's envelope as
	// one NDJSON line.
	AccessLog *AccessLog
}

// jobRingEvents is each job's span-ring capacity: enough for every
// serving-path span of a typical job plus the tail of its CEGIS
// iterations. Spans beyond it surface as the trace's dropped count.
const jobRingEvents = 256

// jobState is a job's position in its lifecycle.
type jobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued jobState = "queued"
	// JobRunning: a worker is solving it.
	JobRunning jobState = "running"
	// JobDone: finished with a result.
	JobDone jobState = "done"
	// JobFailed: finished with an error.
	JobFailed jobState = "failed"
	// JobCanceled: canceled before or during the run.
	JobCanceled jobState = "canceled"
)

// terminal reports whether a state is final.
func (s jobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// eventCap bounds each job's replayable event history; beyond it the
// oldest lines are dropped (live subscribers still see everything).
const eventCap = 4096

// finishedJobsKept bounds the finished jobs the server remembers, each
// with its result, event history and trace ring: when a job finishes,
// the oldest finished jobs beyond it are forgotten, and their ids then
// answer 404 like unknown ones. Queued and running jobs are never
// forgotten.
const finishedJobsKept = 256

// job is one unit of work and its full lifecycle record.
type job struct {
	id   string
	kind string
	key  string
	run  func(ctx context.Context, j *job) (json.RawMessage, error)

	// Trace correlation, fixed at admission: the job's trace ID (client-
	// supplied or generated), the client key, the HTTP arrival time, and
	// the per-job span ring (nil under Config.NoTrace). spans is the
	// exporter every job's tracer carries; it counts the job's cache
	// traffic and sums its latency split.
	traceID  string
	client   string
	admitted time.Time
	ring     *obs.Recorder
	spans    *engineSpans

	mu        sync.Mutex
	state     jobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    json.RawMessage
	cancel    context.CancelFunc
	dedups    int
	prov      *ProvSummary

	bus    *serve.Broadcast
	events [][]byte
	done   chan struct{}
}

// publishState publishes a job.state event: the job's envelope without
// its result, the record GET /v1/jobs/{id} and the access log carry.
func (j *job) publishState(env JobEnvelope) {
	line, err := json.Marshal(struct {
		Type string `json:"type"`
		JobEnvelope
	}{"job.state", env})
	if err != nil {
		return
	}
	j.publishLine(line)
}

// publishLine appends one marshaled event line to the job's history and
// fans it out to live subscribers.
func (j *job) publishLine(line []byte) {
	j.mu.Lock()
	if len(j.events) >= eventCap {
		j.events = append(j.events[:0], j.events[1:]...)
	}
	j.events = append(j.events, line)
	j.bus.Publish(line)
	j.mu.Unlock()
}

// engineSpans is the per-job exporter on every job's tracer. It counts
// the job's engine.cache closes by their tier attribute and sums their
// durations and those of its synth.cegis closes: the cache traffic and
// the cache/solve latency split of the job envelope. With stream set
// (tracing on) it also publishes the close of each engine.* span
// (engine.run, engine.job, engine.cache) on the job's SSE stream, in the
// obs.MarshalRecord schema with the job id added, timestamped from the
// job's admission like its trace. Every other span is left to the job's
// trace ring, which keeps the stream near two lines per engine job.
type engineSpans struct {
	j      *job
	stream bool
	// cache and solve are the summed durations, in nanoseconds.
	cache, solve atomic.Int64
	// hits, disk and misses count lookups by tier; disk is the subset of
	// hits the persistent store answered.
	hits, disk, misses atomic.Int64
}

// wait reports the summed engine.cache and synth.cegis durations.
func (e *engineSpans) wait() (cache, solve time.Duration) {
	return time.Duration(e.cache.Load()), time.Duration(e.solve.Load())
}

// tier collapses the job's lookups into one tier: any miss means real
// synthesis ran, else any disk hit means the persistent store was
// needed, else memory answered; no lookup is "none". A solve job's one
// lookup gives its own tier.
func (e *engineSpans) tier() engine.Tier {
	switch {
	case e.misses.Load() > 0:
		return engine.TierMiss
	case e.disk.Load() > 0:
		return engine.TierDisk
	case e.hits.Load() > 0:
		return engine.TierMem
	default:
		return engine.TierNone
	}
}

// Span implements obs.Exporter.
func (e *engineSpans) Span(d obs.SpanData) {
	switch d.Name {
	case "engine.cache":
		e.cache.Add(int64(d.Duration))
		for _, a := range d.Attrs {
			if a.Key != "tier" {
				continue
			}
			switch a.Value {
			case string(engine.TierMem):
				e.hits.Add(1)
			case string(engine.TierDisk):
				e.hits.Add(1)
				e.disk.Add(1)
			case string(engine.TierMiss):
				e.misses.Add(1)
			}
		}
	case "synth.cegis":
		e.solve.Add(int64(d.Duration))
	}
	if !e.stream || !strings.HasPrefix(d.Name, "engine.") {
		return
	}
	rec, err := obs.MarshalRecord("span", d, e.j.admitted)
	if err != nil {
		return
	}
	// Job ids are server-generated (j-NNNNNN) and need no JSON escaping.
	e.j.publishLine(append([]byte(`{"job":"`+e.j.id+`",`), rec[1:]...))
}

// Mark implements obs.Exporter; marks stay in the job's trace ring.
func (*engineSpans) Mark(obs.SpanData) {}

// Flush implements obs.Exporter (lines are published eagerly).
func (*engineSpans) Flush() error { return nil }

// snapshotEvents returns the replay history and a live subscription,
// atomically with respect to publish, so SSE consumers see every event
// exactly once and in order.
func (j *job) snapshotEvents() (history [][]byte, live <-chan []byte, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([][]byte(nil), j.events...)
	live, cancel = j.bus.Subscribe()
	return history, live, cancel
}

// Server is the job server. Create with New, mount its API with Mount or
// Handler, Start the worker pool, and Drain on shutdown.
type Server struct {
	cfg   Config
	cache *engine.Cache
	reg   *obs.Registry
	rl    *limiter

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	finished []string        // ids of the finished jobs in jobs, oldest first
	byKey    map[string]*job // queued/running jobs only
	queue    chan *job
	draining bool
	nextID   int

	wg sync.WaitGroup

	// now is the clock and keep the number of finished jobs kept
	// (finishedJobsKept); tests swap both.
	now  func() time.Time
	keep int
}

// New builds an unstarted server.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cache := cfg.Cache
	if cache == nil {
		cache = engine.NewCache()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		reg:   reg,
		jobs:  map[string]*job{},
		byKey: map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
		now:   time.Now,
		keep:  finishedJobsKept,
	}
	if cfg.Rate > 0 {
		s.rl = newLimiter(cfg.Rate, cfg.Burst)
	}
	return s
}

// Metrics exposes the registry the server counts into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Start launches the worker pool.
func (s *Server) Start() {
	s.reg.Gauge("server.workers").Set(int64(s.cfg.MaxInflight))
	for i := 0; i < s.cfg.MaxInflight; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether a new submission would be admitted right now:
// nil unless the server is draining or the admission queue is saturated
// (both conditions under which submit answers 503). The /readyz endpoint
// surfaces it so a load balancer stops routing before the 503s start.
func (s *Server) Ready() error {
	s.mu.Lock()
	draining := s.draining
	depth, capacity := len(s.queue), cap(s.queue)
	s.mu.Unlock()
	if draining {
		return fmt.Errorf("draining: new submissions are refused")
	}
	if depth >= capacity {
		return fmt.Errorf("admission queue saturated (%d/%d)", depth, capacity)
	}
	return nil
}

// Drain stops admission (submissions get 503), lets the workers finish
// every queued and running job, and returns when the pool is idle. If
// timeout elapses first, running jobs are canceled and Drain waits for
// the cancellations to land. Safe to call more than once.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	// Every send happens under mu with the draining flag checked first,
	// so closing here cannot race a send.
	close(s.queue)
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() { s.wg.Wait(); close(idle) }()
	var t <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		t = tm.C
	}
	select {
	case <-idle:
	case <-t:
		s.cancelAll()
		<-idle
	}
}

// cancelAll cancels every non-terminal job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j)
	}
}

// errSubmit carries an HTTP status with a submission failure.
type errSubmit struct {
	status int
	msg    string
}

func (e *errSubmit) Error() string { return e.msg }

// submit validates, rate-limits, dedups, and enqueues one request.
// admitted is the HTTP arrival time (it bounds the admission span) and
// traceID is the client-supplied trace ID, empty to generate one. The
// returned bool reports dedup: true means the job was already in flight
// and the caller joined it — the existing job keeps its own trace ID.
func (s *Server) submit(req *JobRequest, client, traceID string, admitted time.Time) (*job, bool, error) {
	if admitted.IsZero() {
		admitted = s.now()
	}
	if s.rl != nil && !s.rl.allow(client, s.now()) {
		s.reg.Counter("server.rate_limited").Inc()
		return nil, false, &errSubmit{http.StatusTooManyRequests, "rate limit exceeded"}
	}
	key, runner, err := s.prepare(req)
	if err != nil {
		return nil, false, &errSubmit{http.StatusBadRequest, err.Error()}
	}
	s.reg.Counter("server.jobs_submitted").Inc()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, &errSubmit{http.StatusServiceUnavailable, "server is draining"}
	}
	if live, ok := s.byKey[key]; ok {
		live.mu.Lock()
		live.dedups++
		live.mu.Unlock()
		s.mu.Unlock()
		s.reg.Counter("server.dedup_hits").Inc()
		return live, true, nil
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.nextID),
		kind:      req.Kind,
		key:       key,
		run:       runner,
		client:    client,
		admitted:  admitted,
		state:     JobQueued,
		submitted: s.now(),
		bus:       serve.NewBroadcast(),
		done:      make(chan struct{}),
	}
	j.spans = &engineSpans{j: j, stream: !s.cfg.NoTrace}
	if !s.cfg.NoTrace {
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		j.traceID = traceID
		j.ring = obs.NewRecorder(jobRingEvents)
		// The ring's clock starts at HTTP arrival so the admission span
		// sits at t_ms = 0 in the job trace.
		j.ring.SetEpoch(admitted)
	}
	// The queued line goes first: once the job is on the queue a worker
	// may publish its running line at any moment.
	j.publishState(j.envelope(false))
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.reg.Counter("server.queue_rejected").Inc()
		return nil, false, &errSubmit{http.StatusServiceUnavailable, "admission queue full"}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byKey[key] = j
	s.mu.Unlock()
	s.reg.Counter("server.jobs_enqueued").Inc()
	s.reg.Gauge("server.queue.depth").Inc()
	return j, false, nil
}

// get looks a job up by ID.
func (s *Server) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one dequeued job end to end.
func (s *Server) runJob(j *job) {
	s.reg.Counter("server.jobs_dequeued").Inc()
	// The queue slot frees at dequeue — canceled-while-queued jobs still
	// occupied theirs until now, so this is the only place the gauge may
	// come down.
	s.reg.Gauge("server.queue.depth").Dec()
	j.mu.Lock()
	if j.state != JobQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = s.now()
	queueWait := j.started.Sub(j.submitted)
	base := s.cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(base, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	// Engine-level counters (cache tiers, lookup latency) ride the context
	// registry; point it at the server's when the base context brings none,
	// so /metrics sees them on any wiring.
	if obs.MetricsFrom(ctx) == nil {
		ctx = obs.WithMetrics(ctx, s.reg)
	}
	s.reg.Histogram("server.queue.wait_ms").Observe(queueWait)
	busy := s.reg.Gauge("server.workers.busy")
	busy.Inc()
	defer busy.Dec()
	j.publishState(j.envelope(false))

	// Per-job tracing: a child tracer (the session exporters keep seeing
	// its spans) feeds the job's latency split and, with tracing on, tees
	// the spans into the job's ring and its engine spans onto its event
	// stream, rooted at a server.job span. The phases that elapsed before
	// this tracer existed — HTTP admission and the queue wait — are
	// emitted as pre-timed child spans, so the trace covers the job's
	// whole lifetime, not just its run.
	exps := []obs.Exporter{j.spans}
	if j.ring != nil {
		exps = append(exps, j.ring)
	}
	tr := obs.TracerFrom(ctx).Child(exps...)
	if tr == nil {
		tr = obs.NewTracer(exps...)
	}
	ctx = obs.WithTracer(ctx, tr)
	var root *obs.Span
	if j.ring != nil {
		ctx, root = obs.Start(ctx, "server.job",
			obs.Str("job", j.id), obs.Str("kind", j.kind), obs.Str("trace", j.traceID))
		root.Emit("server.admission", j.admitted, j.submitted.Sub(j.admitted))
		root.Emit("server.queue_wait", j.submitted, queueWait)
	}

	result, err := j.run(ctx, j)

	// Out of the dedup index first, so no submission joins the job once
	// its status record is final.
	s.mu.Lock()
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()
	j.mu.Lock()
	j.finished = s.now()
	switch {
	case j.state == JobCanceled || errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.err = "canceled"
	case err != nil:
		j.state = JobFailed
		j.err = err.Error()
	default:
		j.state = JobDone
		j.result = result
	}
	state := j.state
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()

	root.SetAttr(obs.Str("tier", string(j.spans.tier())), obs.Str("outcome", string(state)))
	root.End()

	switch state {
	case JobDone:
		s.reg.Counter("server.jobs_completed").Inc()
	case JobFailed:
		s.reg.Counter("server.jobs_failed").Inc()
	case JobCanceled:
		s.reg.Counter("server.jobs_canceled").Inc()
	}
	s.reg.Histogram("server.job_ms").Observe(elapsed)
	s.finish(j)
}

// finish emits a terminal job's status record, one envelope snapshot
// written to the access log and published as the last job.state event,
// ends its event stream, and forgets the oldest finished jobs beyond
// s.keep.
func (s *Server) finish(j *job) {
	env := j.envelope(false)
	s.cfg.AccessLog.Log(env, j.client)
	j.publishState(env)
	close(j.done)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j.id)
	for ; len(s.finished) > s.keep; s.finished = s.finished[1:] {
		old := s.finished[0]
		delete(s.jobs, old)
		s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == old })
	}
}

// ms converts a duration to float milliseconds for wire/log fields.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cancelJob cancels a job in any non-terminal state.
func (s *Server) cancelJob(j *job) bool {
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		// The worker will observe the state and skip it; finish it here.
		// (The queue-depth gauge stays up: the job still holds its channel
		// slot until a worker dequeues the husk.)
		j.state = JobCanceled
		j.err = "canceled"
		j.finished = s.now()
		j.mu.Unlock()
		s.mu.Lock()
		if s.byKey[j.key] == j {
			delete(s.byKey, j.key)
		}
		s.mu.Unlock()
		s.reg.Counter("server.jobs_canceled").Inc()
		s.finish(j)
		return true
	case JobRunning:
		j.state = JobCanceled
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// StatsSnapshot is the /v1/stats response.
type StatsSnapshot struct {
	Draining    bool    `json:"draining"`
	Queued      int     `json:"queued"`
	Running     int     `json:"running"`
	Workers     int     `json:"workers"`
	Utilization float64 `json:"worker_utilization"`
	Jobs        int     `json:"jobs"`
	CacheLen    int     `json:"cache_entries"`

	// Disk is present when the cache has a diskcache backend.
	Disk *diskcache.Stats `json:"disk,omitempty"`
}

// stats gathers the live gauges the counter-only registry cannot hold.
func (s *Server) stats() StatsSnapshot {
	s.mu.Lock()
	var queued, running int
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
		j.mu.Unlock()
	}
	snap := StatsSnapshot{
		Draining: s.draining,
		Queued:   queued,
		Running:  running,
		Workers:  s.cfg.MaxInflight,
		Jobs:     len(s.jobs),
	}
	s.mu.Unlock()
	snap.Utilization = float64(running) / float64(s.cfg.MaxInflight)
	snap.CacheLen = s.cache.Len()
	if store := s.cache.Store(); store != nil {
		st := store.Stats()
		snap.Disk = &st
	}
	return snap
}

// FlightState is the server section of a flight-recorder dump: the
// queue/worker picture and the envelope of every live job at the moment
// the dump was taken, so a post-mortem of a dead serve process shows what
// it was working on, not just the span tail.
type FlightState struct {
	Draining    bool             `json:"draining"`
	QueueDepth  int              `json:"queue_depth"`
	QueueCap    int              `json:"queue_cap"`
	Workers     int              `json:"workers"`
	WorkersBusy int64            `json:"workers_busy"`
	Jobs        []JobEnvelope    `json:"jobs,omitempty"`
	RateLimiter *limiterSnapshot `json:"rate_limiter,omitempty"`
}

// FlightSnapshot captures the server's live state; cmd/transit registers
// it on the session recorder (Recorder.AddSnapshot) so every flight dump
// taken while serving carries it. Safe to call from any goroutine.
func (s *Server) FlightSnapshot() any {
	st := FlightState{
		QueueCap:    s.cfg.QueueDepth,
		Workers:     s.cfg.MaxInflight,
		WorkersBusy: s.reg.Gauge("server.workers.busy").Value(),
		RateLimiter: s.rl.snapshot(s.now()),
	}
	s.mu.Lock()
	st.Draining = s.draining
	st.QueueDepth = len(s.queue)
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if env := j.envelope(false); !jobState(env.Status).terminal() {
			st.Jobs = append(st.Jobs, env)
		}
	}
	return st
}

// completeKey derives the dedup key for a completion request: a SHA-256
// over the canonicalized request (after defaulting), kind-prefixed so
// solve and complete keys cannot collide.
func completeKey(req *CompleteRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "complete:%q:%q:%d:%d", req.Source, req.Builtin, req.NumCaches, req.MaxSize)
	return "complete:" + hex.EncodeToString(h.Sum(nil))
}
