package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// defaultFlightEvents is the ring capacity when the caller does not pick
// one. 4096 events is minutes of steady-state marks or the full tail of a
// busy CEGIS round, and well under a megabyte of memory.
const defaultFlightEvents = 4096

// recSlot is one ring cell. Each slot has its own mutex so concurrent
// span closes from enumeration workers contend only when they land on the
// same cell (i.e. essentially never until the ring wraps within one
// scheduling quantum).
type recSlot struct {
	mu   sync.Mutex
	seq  uint64
	kind byte // 0 = empty, 1 = span, 2 = mark
	data SpanData
}

// Recorder is the flight recorder: a fixed-size ring buffer fed by every
// span close and instant mark, kept in memory and written out only when
// something goes wrong (panic, cancellation, deadline, SIGINT) or when a
// post-mortem is explicitly requested. It implements Exporter, so it
// rides the same tracer fan-out as the file exporters; the hot path is
// one atomic increment plus one uncontended mutexed struct copy, and when
// no recorder is installed (the default) nothing changes anywhere.
//
// The ring keeps the newest N events; older ones are overwritten silently
// and reported only as a dropped count in the dump header. A dump is a
// best-effort snapshot: events recorded while Dump runs may or may not be
// included, which is the right trade for a crash path.
type Recorder struct {
	slots []recSlot
	next  atomic.Uint64
	epoch time.Time

	// Metrics, when non-nil, is snapshotted into the dump trailer so the
	// post-mortem carries final counter values next to the event tail.
	Metrics *Registry

	// snapshots are extra dump sections registered with AddSnapshot; each
	// contributes one {"type":<typ>,"data":...} line after the header.
	snapMu    sync.Mutex
	snapshots []recSnapshot
}

// recSnapshot is one registered auxiliary dump section.
type recSnapshot struct {
	typ string
	fn  func() any
}

// NewRecorder builds a recorder holding the last n events (n <= 0 means
// the default capacity).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = defaultFlightEvents
	}
	return &Recorder{slots: make([]recSlot, n), epoch: time.Now()}
}

// SetEpoch aligns the dump's t_ms timestamps with the tracer's clock.
func (r *Recorder) SetEpoch(t time.Time) { r.epoch = t }

// Epoch is the zero point the dump's t_ms timestamps are measured from.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// AddSnapshot registers an auxiliary dump section: every Dump calls fn
// and writes its result as one {"type":typ,"data":...} line right after
// the header. The job server registers a queue/in-flight/rate-limiter
// snapshot this way so flight dumps taken mid-serve carry server state
// alongside the span ring. fn must be safe to call from any goroutine.
func (r *Recorder) AddSnapshot(typ string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	r.snapMu.Lock()
	r.snapshots = append(r.snapshots, recSnapshot{typ: typ, fn: fn})
	r.snapMu.Unlock()
}

func (r *Recorder) record(kind byte, d SpanData) {
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	s.seq = seq
	s.kind = kind
	s.data = d
	s.mu.Unlock()
}

// Span implements Exporter.
func (r *Recorder) Span(d SpanData) { r.record(1, d) }

// Mark implements Exporter.
func (r *Recorder) Mark(d SpanData) { r.record(2, d) }

// Flush implements Exporter. The recorder deliberately writes nothing on
// a clean flush: a run that ends normally leaves no flight dump behind.
func (r *Recorder) Flush() error { return nil }

// recEvent is a lock-free copy of one ring cell, used on the dump path.
type recEvent struct {
	seq  uint64
	kind byte
	data SpanData
}

// events copies the ring's current contents in recording order (oldest
// first) and reports the total number of events ever recorded.
func (r *Recorder) events() (evs []recEvent, total uint64) {
	total = r.next.Load()
	evs = make([]recEvent, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.kind != 0 {
			evs = append(evs, recEvent{seq: s.seq, kind: s.kind, data: s.data})
		}
		s.mu.Unlock()
	}
	// Slots were filled round-robin by sequence number; sorting by seq
	// restores recording order regardless of wrap position.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j-1].seq > evs[j].seq; j-- {
			evs[j-1], evs[j] = evs[j], evs[j-1]
		}
	}
	return evs, total
}

// RingEvent is one recorded event as returned by Events: the ring
// sequence number, the event kind ("span" or "mark"), and the span data.
type RingEvent struct {
	Seq  uint64
	Kind string
	Data SpanData
}

// Events copies the ring's current contents in recording order (oldest
// first) and reports the total number of events ever recorded; dropped
// events are total minus len(events). The job server replays a job's
// ring through this into the Chrome exporter for
// /v1/jobs/{id}/trace?format=perfetto.
func (r *Recorder) Events() ([]RingEvent, uint64) {
	evs, total := r.events()
	out := make([]RingEvent, len(evs))
	for i, e := range evs {
		kind := "span"
		if e.kind == 2 {
			kind = "mark"
		}
		out[i] = RingEvent{Seq: e.seq, Kind: kind, Data: e.data}
	}
	return out, total
}

// Len reports how many events the ring currently holds (capped at its
// capacity).
func (r *Recorder) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Dump writes the flight record as NDJSON: one header line
// ({"type":"flight","reason":...,"recorded":N,"dropped":M}), the buffered
// events in recording order using the same span/mark line schema as the
// -stats NDJSON stream, and — when Metrics is set — one final
// {"type":"metrics",...} snapshot line. Dump may be called any number of
// times (each call snapshots the current ring); single-shot semantics on
// the crash path belong to Session.DumpFlight.
func (r *Recorder) Dump(w io.Writer, reason string) error {
	evs, total := r.events()
	dropped := uint64(0)
	if total > uint64(len(evs)) {
		dropped = total - uint64(len(evs))
	}
	enc := json.NewEncoder(w)
	header := struct {
		Type     string `json:"type"`
		Reason   string `json:"reason"`
		PID      int    `json:"pid"`
		Time     string `json:"time"`
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`
	}{"flight", reason, os.Getpid(), time.Now().Format(time.RFC3339Nano), total, dropped}
	if err := enc.Encode(header); err != nil {
		return err
	}
	r.snapMu.Lock()
	snaps := append([]recSnapshot(nil), r.snapshots...)
	r.snapMu.Unlock()
	for _, sn := range snaps {
		line := struct {
			Type string `json:"type"`
			Data any    `json:"data"`
		}{sn.typ, sn.fn()}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for _, e := range evs {
		typ := "span"
		if e.kind == 2 {
			typ = "mark"
		}
		if err := enc.Encode(record(typ, e.data, r.epoch)); err != nil {
			return err
		}
	}
	if r.Metrics != nil {
		snap := r.Metrics.Snapshot()
		trailer := struct {
			Type string `json:"type"`
			Snapshot
		}{Type: "metrics", Snapshot: snap}
		if err := enc.Encode(trailer); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes Dump's output to path (created or truncated).
func (r *Recorder) DumpFile(path, reason string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	werr := r.Dump(f, reason)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("obs: flight dump: %w", werr)
	}
	return cerr
}

// DefaultFlightPath is the conventional dump location for a process:
// transit-flight-<pid>.ndjson in the working directory.
func DefaultFlightPath() string {
	return fmt.Sprintf("transit-flight-%d.ndjson", os.Getpid())
}
