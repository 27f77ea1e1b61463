package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"time"

	"transit/internal/obs"
	"transit/internal/obs/serve"
)

// JobEnvelope is the job's one status record: lifecycle, latency split,
// cache traffic and, once done, the result payload. Without Result it is
// also every job.state event, every access-log line (plus the client
// key) and each live job in a flight snapshot. Everything
// nondeterministic (timestamps, latency, cache traffic) lives here;
// Result itself is a pure function of the request, byte-identical cold
// or warm.
type JobEnvelope struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	Key         string          `json:"key"`
	Status      string          `json:"status"`
	TraceID     string          `json:"trace_id,omitempty"`
	Deduped     bool            `json:"deduped,omitempty"`
	DedupJoins  int             `json:"dedup_joins,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	ElapsedMS   float64         `json:"elapsed_ms,omitempty"`
	QueueMS     float64         `json:"queue_ms,omitempty"`
	CacheWaitMS float64         `json:"cache_wait_ms,omitempty"`
	SolveWaitMS float64         `json:"solve_wait_ms,omitempty"`
	CacheTier   string          `json:"cache_tier,omitempty"`
	CacheHits   int64           `json:"cache_hits,omitempty"`
	CacheMisses int64           `json:"cache_misses,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// envelope snapshots a job, with its result payload when withResult is
// set. The cache fields count the job's engine.cache spans so far; a
// job that has not started has no tier.
func (j *job) envelope(withResult bool) JobEnvelope {
	j.mu.Lock()
	defer j.mu.Unlock()
	env := JobEnvelope{
		ID:          j.id,
		Kind:        j.kind,
		Key:         j.key,
		Status:      string(j.state),
		TraceID:     j.traceID,
		DedupJoins:  j.dedups,
		SubmittedAt: j.submitted,
		Error:       j.err,
		CacheHits:   j.spans.hits.Load(),
		CacheMisses: j.spans.misses.Load(),
	}
	if withResult {
		env.Result = j.result
	}
	cacheWait, solveWait := j.spans.wait()
	env.CacheWaitMS, env.SolveWaitMS = ms(cacheWait), ms(solveWait)
	if !j.started.IsZero() {
		t := j.started
		env.StartedAt = &t
		env.QueueMS = ms(j.started.Sub(j.submitted))
		env.CacheTier = string(j.spans.tier())
	}
	if !j.finished.IsZero() {
		t := j.finished
		env.FinishedAt = &t
		if !j.started.IsZero() {
			env.ElapsedMS = ms(j.finished.Sub(j.started))
		}
	}
	return env
}

// Handler returns the server's API as a standalone http.Handler (used by
// tests and by callers without an introspection server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range s.routes() {
		mux.HandleFunc(pattern, h)
	}
	return mux
}

// Mount registers the API on a live-introspection server, so one address
// serves both the job API and /metrics, /runs, /trace/live. Must be
// called before srv.Start.
func (s *Server) Mount(srv *serve.Server) {
	for pattern, h := range s.routes() {
		srv.Handle(pattern, http.HandlerFunc(h))
	}
}

func (s *Server) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /v1/jobs":            s.handleSubmit,
		"GET /v1/jobs":             s.handleList,
		"GET /v1/jobs/{id}":        s.handleGet,
		"GET /v1/jobs/{id}/events": s.handleEvents,
		"GET /v1/jobs/{id}/trace":  s.handleTrace,
		"DELETE /v1/jobs/{id}":     s.handleCancel,
		"GET /v1/stats":            s.handleStats,
	}
}

// traceIDFromRequest extracts the client-supplied trace ID: the
// X-Transit-Trace header (bare hex) takes precedence, then the W3C
// traceparent header. Malformed values are ignored (a fresh ID is
// generated) rather than rejected — trace correlation is best-effort and
// must never fail a submission.
func traceIDFromRequest(r *http.Request) string {
	for _, h := range []string{"X-Transit-Trace", "Traceparent"} {
		if v := r.Header.Get(h); v != "" {
			if id, ok := obs.ParseTraceHeader(v); ok {
				return id
			}
		}
	}
	return ""
}

// traceSpanID synthesizes a stable nonzero parent span ID for the
// traceparent response header from the job ID.
func traceSpanID(jobID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(jobID))
	if v := h.Sum64(); v != 0 {
		return v
	}
	return 1
}

// clientKey identifies a client for rate limiting: the X-Transit-Client
// header when present (so pooled clients behind one NAT can self-
// identify), else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Transit-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, deduped, err := s.submit(&req, clientKey(r), traceIDFromRequest(r), s.now())
	if err != nil {
		status := http.StatusInternalServerError
		if se, ok := err.(*errSubmit); ok {
			status = se.status
		}
		httpError(w, status, "%s", err)
		return
	}
	// Echo the job's trace context (dedup joins get the original job's
	// trace ID, not the one they supplied) so clients can correlate.
	if j.traceID != "" {
		w.Header().Set("X-Transit-Trace", j.traceID)
		w.Header().Set("Traceparent", obs.FormatTraceparent(j.traceID, traceSpanID(j.id)))
	}
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
	}
	env := j.envelope(true)
	env.Deduped = deduped
	writeJSON(w, status, env)
}

// handleTrace serves a job's bounded span ring as a flight dump: NDJSON
// by default (render it with `transit obs report`), Chrome trace-event
// JSON with ?format=perfetto (loadable at ui.perfetto.dev).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.ring == nil {
		httpError(w, http.StatusNotFound, "tracing disabled on this server")
		return
	}
	w.Header().Set("X-Transit-Trace", j.traceID)
	if r.URL.Query().Get("format") == "perfetto" {
		ch := obs.NewChrome(w)
		ch.SetEpoch(j.ring.Epoch())
		events, _ := j.ring.Events()
		for _, e := range events {
			if e.Kind == "mark" {
				ch.Mark(e.Data)
			} else {
				ch.Span(e.Data)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = ch.Flush()
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = j.ring.Dump(w, "job "+j.id)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	envs := make([]JobEnvelope, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.get(id); ok {
			envs = append(envs, j.envelope(true))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": envs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.envelope(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.cancelJob(j) {
		httpError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusOK, j.envelope(true))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleEvents streams a job's event history and then its live events as
// server-sent events, ending when the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")

	history, live, cancel := j.snapshotEvents()
	defer cancel()
	for _, line := range history {
		fmt.Fprintf(w, "data: %s\n\n", line)
	}
	fl.Flush()

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case line, ok := <-live:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			fl.Flush()
		case <-j.done:
			// Drain whatever was already queued, then end the stream.
			for {
				select {
				case line, ok := <-live:
					if !ok {
						return
					}
					fmt.Fprintf(w, "data: %s\n\n", line)
				default:
					fl.Flush()
					return
				}
			}
		case <-keepalive.C:
			fmt.Fprintf(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
