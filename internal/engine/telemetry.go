package engine

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured telemetry record. The engine emits:
//
//	{"type":"engine_start","workers":N,"jobs":M}
//	{"type":"job_start","job":L,"kind":K,"worker":W}
//	{"type":"job_end","job":L,"kind":K,"worker":W,"duration_ms":D,
//	 "cache_hit":B,"candidates":C,"smt_queries":Q,
//	 "cegis_iterations":I,"retries":R,"error":E}
//	{"type":"engine_end","workers":N,"jobs":M,"failed":F,"skipped":S,
//	 "cache_hits":H,"cache_misses":Mi,"duration_ms":D,"utilization":U}
//
// Zero-valued optional fields are omitted from the JSON encoding. The
// worker field is 1-based (workers 1..N) so that it, too, can be
// omitted when absent: engine_start/engine_end carry no worker, and a
// 0-based numbering would have dropped the field from worker 0's job
// events as well.
type Event struct {
	Type        string  `json:"type"`
	Job         string  `json:"job,omitempty"`
	Kind        string  `json:"kind,omitempty"`
	Worker      int     `json:"worker,omitempty"`
	DurationMS  float64 `json:"duration_ms,omitempty"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	CacheTier   string  `json:"cache_tier,omitempty"`
	Candidates  int64   `json:"candidates,omitempty"`
	SMTQueries  int     `json:"smt_queries,omitempty"`
	Iterations  int     `json:"cegis_iterations,omitempty"`
	Retries     int     `json:"retries,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Jobs        int     `json:"jobs,omitempty"`
	Failed      int     `json:"failed,omitempty"`
	Skipped     int     `json:"skipped,omitempty"`
	CacheHits   int     `json:"cache_hits,omitempty"`
	CacheMisses int     `json:"cache_misses,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// Sink consumes telemetry events. Sinks must be safe for concurrent
// calls; the engine invokes them from every worker goroutine.
type Sink func(Event)

// NewJSONSink returns a Sink that writes one JSON object per line to w,
// serialized by an internal mutex so concurrent workers never interleave
// bytes. Encoding errors are dropped (telemetry is best-effort).
func NewJSONSink(w io.Writer) Sink {
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	return func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(ev)
	}
}

// MultiSink fans an event out to several sinks.
func MultiSink(sinks ...Sink) Sink {
	return func(ev Event) {
		for _, s := range sinks {
			if s != nil {
				s(ev)
			}
		}
	}
}

// CollectSink appends events to a slice under a mutex; handy for tests
// and for in-process consumers like internal/bench.
func CollectSink(dst *[]Event) Sink {
	var mu sync.Mutex
	return func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		*dst = append(*dst, ev)
	}
}
