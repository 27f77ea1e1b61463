package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Report reads an NDJSON event stream — a flight-recorder dump, a -stats
// capture, or any mix of span/mark lines — and renders it in the same
// summary-tree format -stats-summary prints live: the span tree with
// count/total/mean/max per call position, mark counts, and (when the
// stream carries a metrics trailer) the counters-and-histograms table.
// Lines of any other type are skipped and counted. Lines that are not
// JSON objects fail the whole report: a half-written dump should be
// noticed, not silently truncated.
func Report(r io.Reader, w io.Writer) error {
	type rec struct {
		Type       string         `json:"type"`
		Name       string         `json:"name"`
		Span       uint64         `json:"span"`
		Parent     uint64         `json:"parent"`
		DurationMS float64        `json:"duration_ms"`
		Attrs      map[string]any `json:"attrs"`

		// flight header fields
		Reason   string `json:"reason"`
		PID      int    `json:"pid"`
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`

		// metrics trailer fields
		Counters   []CounterSnapshot   `json:"counters"`
		Gauges     []GaugeSnapshot     `json:"gauges"`
		Histograms []HistogramSnapshot `json:"histograms"`
	}

	var events []rec
	var header *rec
	var metrics *Snapshot
	skipped := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rc rec
		if err := json.Unmarshal(raw, &rc); err != nil {
			return fmt.Errorf("obs: report: line %d: %w", line, err)
		}
		switch rc.Type {
		case "span", "mark":
			events = append(events, rc)
		case "flight":
			h := rc
			header = &h
		case "metrics":
			s := Snapshot{Counters: rc.Counters, Gauges: rc.Gauges, Histograms: rc.Histograms}
			// Sum and Max travel as milliseconds; restore the duration
			// fields Format and Quantile compute from.
			for i := range s.Histograms {
				s.Histograms[i].Sum = time.Duration(s.Histograms[i].SumMS * float64(time.Millisecond))
				s.Histograms[i].Max = time.Duration(s.Histograms[i].MaxMS * float64(time.Millisecond))
			}
			metrics = &s
		default:
			skipped++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: report: %w", err)
	}

	// Rebuild each event's ancestor path from the span-id graph. A parent
	// can be missing — it never closed because the process died, or the
	// ring evicted it — in which case the event roots where knowledge
	// ends.
	names := make(map[uint64]rec, len(events))
	for _, e := range events {
		if e.Type == "span" {
			names[e.Span] = e
		}
	}
	var pathOf func(id uint64, depth int) string
	pathOf = func(id uint64, depth int) string {
		e, ok := names[id]
		if !ok || depth > 64 {
			return ""
		}
		if p := pathOf(e.Parent, depth+1); p != "" {
			return p + "/" + e.Name
		}
		return e.Name
	}

	if header != nil {
		fmt.Fprintf(w, "flight dump: reason %q, pid %d, %d events recorded, %d dropped\n",
			header.Reason, header.PID, header.Recorded, header.Dropped)
	}
	sum := NewSummary(w)
	for _, e := range events {
		prefix := pathOf(e.Parent, 0)
		path := e.Name
		if prefix != "" {
			path = prefix + "/" + e.Name
		}
		d := SpanData{Name: e.Name, Path: path,
			Duration: time.Duration(e.DurationMS * float64(time.Millisecond))}
		if e.Type == "span" {
			sum.Span(d)
		} else {
			sum.Mark(d)
		}
	}
	if len(events) == 0 {
		fmt.Fprintf(w, "no span or mark events\n")
	}
	if err := sum.Flush(); err != nil {
		return err
	}
	if metrics != nil {
		if _, err := io.WriteString(w, metrics.Format()); err != nil {
			return err
		}
	}
	if skipped > 0 {
		fmt.Fprintf(w, "(%d non-span lines skipped)\n", skipped)
	}
	return nil
}
