package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// ndjsonRecord is the line schema: a "type" discriminator plus flat
// fields, one span close or mark per line:
//
//	{"type":"span","name":"smt.solve","span":17,"parent":9,"track":2,
//	 "t_ms":41.2,"duration_ms":3.8,"attrs":{"status":"unsat",...}}
//	{"type":"mark","name":"mc.progress","span":31,"parent":30,
//	 "t_ms":1203.0,"attrs":{"states":812345,"states_per_sec":623000}}
type ndjsonRecord struct {
	Type       string         `json:"type"`
	Name       string         `json:"name"`
	Span       uint64         `json:"span"`
	Parent     uint64         `json:"parent,omitempty"`
	Track      int            `json:"track,omitempty"`
	StartMS    float64        `json:"t_ms"`
	DurationMS float64        `json:"duration_ms,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// record builds the line record of one span or mark, timestamped in
// milliseconds since epoch. It is the one encoding behind MarshalRecord,
// the -stats exporter and the flight-recorder dump.
func record(typ string, d SpanData, epoch time.Time) ndjsonRecord {
	rec := ndjsonRecord{
		Type:    typ,
		Name:    d.Name,
		Span:    d.ID,
		Parent:  d.Parent,
		Track:   d.Track,
		StartMS: float64(d.Start.Sub(epoch)) / float64(time.Millisecond),
		Attrs:   attrMap(d.Attrs),
	}
	if d.Duration > 0 {
		rec.DurationMS = float64(d.Duration) / float64(time.Millisecond)
	}
	return rec
}

// MarshalRecord renders one span or mark in the NDJSON line schema
// (without trailing newline), timestamped against epoch. It is the shared
// wire format of the -stats stream, the flight recorder, the live SSE
// trace endpoint and the job server's per-job event streams, so a
// consumer parses all of them identically.
func MarshalRecord(typ string, d SpanData, epoch time.Time) ([]byte, error) {
	return json.Marshal(record(typ, d, epoch))
}

// NDJSONExporter streams finished spans and marks as one JSON object per
// line, timestamped in milliseconds since the exporter's epoch. Encoding
// errors are dropped (telemetry is best-effort).
type NDJSONExporter struct {
	mu    sync.Mutex
	enc   *json.Encoder
	epoch time.Time
}

// NewNDJSON builds an exporter writing to w with epoch now.
func NewNDJSON(w io.Writer) *NDJSONExporter {
	return &NDJSONExporter{enc: json.NewEncoder(w), epoch: time.Now()}
}

// SetEpoch overrides the timestamp zero point (used by tracers to align
// exporters, and by tests for determinism).
func (n *NDJSONExporter) SetEpoch(t time.Time) { n.epoch = t }

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func (n *NDJSONExporter) write(typ string, d SpanData) {
	rec := record(typ, d, n.epoch)
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.enc.Encode(rec)
}

// Span implements Exporter.
func (n *NDJSONExporter) Span(d SpanData) { n.write("span", d) }

// Mark implements Exporter.
func (n *NDJSONExporter) Mark(d SpanData) { n.write("mark", d) }

// Flush implements Exporter (lines are written eagerly; nothing buffers).
func (n *NDJSONExporter) Flush() error { return nil }
