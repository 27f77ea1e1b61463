package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"transit/internal/obs"
)

// Server is the live introspection endpoint for one process. Create it
// before the obs.Session (its Exporters must join the tracer fan-out),
// Attach the session's registry and recorder, then Start.
//
//	srv := serve.New(addr)
//	sess, _ := obs.NewSession(obs.Options{Extra: srv.Exporters(), ...})
//	srv.Attach(sess)
//	srv.Start()
//	defer srv.Close()
type Server struct {
	addr      string
	broadcast *Broadcast
	live      *Live

	// Registry backs /metrics and /vars; Recorder backs /flight. Both
	// are attached from the session (nil is tolerated: the endpoints
	// degrade to empty output / 404).
	Registry *obs.Registry
	Recorder *obs.Recorder

	// Ready backs /readyz: nil (or a nil return) means ready, an error
	// means 503 with the reason in the body. The process composes it from
	// whatever defines "can do useful work" — the job server's admission
	// state, the disk cache's writability. Set before Start.
	Ready func() error

	// Provenance backs the "provenance" section of /runs: per-job ledger
	// summaries from the job server. Nil omits the section. Set before
	// Start.
	Provenance func() any

	started time.Time
	ln      net.Listener
	srv     *http.Server
	extra   []route
}

type route struct {
	pattern string
	handler http.Handler
}

// Handle mounts an additional handler on the server's mux. It must be
// called before Start; patterns use net/http ServeMux syntax (method and
// wildcard patterns included). The job server mounts its /v1/ API this
// way so one address serves both the job API and the introspection
// endpoints.
func (s *Server) Handle(pattern string, handler http.Handler) {
	s.extra = append(s.extra, route{pattern, handler})
}

// New builds an unstarted server for addr (host:port; ":0" picks a free
// port, reported by Addr after Start).
func New(addr string) *Server {
	return &Server{addr: addr, broadcast: NewBroadcast(), live: NewLive()}
}

// Exporters returns the exporters the server feeds on — pass them as
// obs.Options.Extra when building the session.
func (s *Server) Exporters() []obs.Exporter {
	return []obs.Exporter{s.broadcast, s.live}
}

// Attach wires the session's registry and flight recorder into the
// /metrics, /vars, and /flight endpoints.
func (s *Server) Attach(sess *obs.Session) {
	s.Registry = sess.Metrics
	s.Recorder = sess.Recorder
}

// Start binds the address and serves in a background goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("obs serve: %w", err)
	}
	s.ln = ln
	s.started = time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/vars", s.handleVars)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/trace/live", s.handleTraceLive)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/debug/pprof/", obs.NewPprofMux())
	for _, rt := range s.extra {
		mux.Handle(rt.pattern, rt.handler)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr reports the bound address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener; in-flight SSE streams end when their clients
// notice.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `transit live introspection (pid %d)

  /metrics      Prometheus text exposition (counters + latency histograms)
  /vars         JSON metrics snapshot + runtime stats
  /runs         active engine jobs and live synthesis / model-check gauges
  /trace/live   trace spans and marks as server-sent events (NDJSON payloads)
  /flight       current flight-recorder ring as an NDJSON dump
  /healthz      liveness: 200 while the process serves HTTP
  /readyz       readiness: 200 when work is admitted, 503 with a reason otherwise
  /debug/pprof/ Go profilers
`, os.Getpid())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(s.Registry.Snapshot(), w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	writeJSON(w, struct {
		PID         int          `json:"pid"`
		UptimeMS    float64      `json:"uptime_ms"`
		Goroutines  int          `json:"goroutines"`
		GOMAXPROCS  int          `json:"gomaxprocs"`
		HeapAlloc   uint64       `json:"heap_alloc"`
		NumGC       uint32       `json:"num_gc"`
		Subscribers int          `json:"trace_subscribers"`
		Metrics     obs.Snapshot `json:"metrics"`
	}{
		PID:         os.Getpid(),
		UptimeMS:    float64(time.Since(s.started)) / float64(time.Millisecond),
		Goroutines:  runtime.NumGoroutine(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		HeapAlloc:   mem.HeapAlloc,
		NumGC:       mem.NumGC,
		Subscribers: s.broadcast.Subscribers(),
		Metrics:     s.Registry.Snapshot(),
	})
}

// RunsSnapshot is the /runs response, read from the span stream: the
// engine's in-flight runs with their active jobs, the model checker's
// latest heartbeat, the per-worker live synthesis gauges, and (under a
// job server) the per-job provenance summaries.
type RunsSnapshot struct {
	Engine     []RunLive   `json:"engine"`
	MC         *MCLive     `json:"mc,omitempty"`
	Synth      []SynthLive `json:"synth,omitempty"`
	Provenance any         `json:"provenance,omitempty"`
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	mc, tracks := s.live.Snapshot()
	snap := RunsSnapshot{Engine: s.live.Runs(), MC: mc, Synth: tracks}
	if s.Provenance != nil {
		snap.Provenance = s.Provenance()
	}
	writeJSON(w, snap)
}

// handleHealthz is pure liveness: if this handler runs, the process is
// alive and serving HTTP. Readiness lives at /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers 200 when the process can take on new work and
// 503 (with the reason) when it cannot — draining, saturated queue,
// unwritable cache directory. With no Ready hook, serving HTTP is the
// only requirement, so it reports ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Ready != nil {
		if err := s.Ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "not ready: %v\n", err)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleTraceLive(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	ch, cancel := s.broadcast.Subscribe()
	defer cancel()
	fmt.Fprintf(w, ": transit live trace, NDJSON span/mark payloads\n\n")
	fl.Flush()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			fl.Flush()
		case <-keepalive.C:
			fmt.Fprintf(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.Recorder == nil {
		http.Error(w, "flight recorder not armed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.Recorder.Dump(w, "http request")
}
