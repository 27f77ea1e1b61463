package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedSpans is a deterministic trace: every timestamp is an offset from
// a fixed epoch, so exporter output is byte-stable across runs.
func fixedSpans(epoch time.Time) (spans, marks []SpanData) {
	spans = []SpanData{
		{ID: 1, Name: "engine.run", Path: "engine.run", Track: 0,
			Start: epoch.Add(1 * time.Millisecond), Duration: 5 * time.Millisecond,
			Attrs: []Attr{Int("jobs", 2)}},
		{ID: 2, Parent: 1, Name: "engine.job", Path: "engine.run/engine.job", Track: 1,
			Start: epoch.Add(1200 * time.Microsecond), Duration: 2 * time.Millisecond,
			Attrs: []Attr{Str("job", "t1"), Bool("cached", false)}},
		{ID: 3, Parent: 2, Name: "smt.solve", Path: "engine.run/engine.job/smt.solve", Track: 1,
			Start: epoch.Add(1400 * time.Microsecond), Duration: 500 * time.Microsecond,
			Attrs: []Attr{Str("status", "sat")}},
		// Zero-duration span: the Chrome exporter must clamp dur to 1µs.
		{ID: 5, Parent: 2, Name: "sat.search", Path: "engine.run/engine.job/sat.search", Track: 1,
			Start: epoch.Add(1450 * time.Microsecond), Duration: 0},
	}
	marks = []SpanData{
		{ID: 4, Parent: 1, Name: "mc.progress", Path: "engine.run/mc.progress", Track: 0,
			Start: epoch.Add(3 * time.Millisecond),
			Attrs: []Attr{Int64("states", 100), Float("states_per_sec", 50000)}},
	}
	return spans, marks
}

func feed(e Exporter, spans, marks []SpanData) {
	for _, d := range spans {
		e.Span(d)
	}
	for _, d := range marks {
		e.Mark(d)
	}
}

// TestChromeGolden locks the Chrome trace-event output format against
// testdata/chrome_golden.json. Regenerate with `go test -run
// TestChromeGolden -update ./internal/obs/`.
func TestChromeGolden(t *testing.T) {
	epoch := time.Unix(1000, 0)
	var buf bytes.Buffer
	ch := NewChrome(&buf)
	ch.SetEpoch(epoch)
	spans, marks := fixedSpans(epoch)
	feed(ch, spans, marks)
	if err := ch.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome output drifted from golden (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Independent of the exact bytes, the document must be valid trace-
	// event JSON with the metadata and clamping invariants.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	byName := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		byName[ev["name"].(string)] = ev
	}
	if byName["process_name"] == nil || byName["thread_name"] == nil {
		t.Error("missing metadata events")
	}
	if ev := byName["sat.search"]; ev["dur"].(float64) != 1 {
		t.Errorf("zero-duration span not clamped: dur = %v", ev["dur"])
	}
	if ev := byName["mc.progress"]; ev["ph"] != "i" || ev["s"] != "t" {
		t.Errorf("mark not a thread instant: %v", ev)
	}
	if ev := byName["smt.solve"]; ev["cat"] != "smt" {
		t.Errorf("cat = %v, want smt", ev["cat"])
	}
}

func TestNDJSONSchema(t *testing.T) {
	epoch := time.Unix(1000, 0)
	var buf bytes.Buffer
	nd := NewNDJSON(&buf)
	nd.SetEpoch(epoch)
	spans, marks := fixedSpans(epoch)
	feed(nd, spans, marks)
	if err := nd.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	var first struct {
		Type       string         `json:"type"`
		Name       string         `json:"name"`
		Span       uint64         `json:"span"`
		TMS        float64        `json:"t_ms"`
		DurationMS float64        `json:"duration_ms"`
		Attrs      map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "span" || first.Name != "engine.run" || first.Span != 1 {
		t.Errorf("first record = %+v", first)
	}
	if first.TMS != 1 || first.DurationMS != 5 {
		t.Errorf("timestamps = t_ms %v, duration_ms %v", first.TMS, first.DurationMS)
	}
	if first.Attrs["jobs"] != float64(2) {
		t.Errorf("attrs = %v", first.Attrs)
	}
	// Last line is the mark: type "mark", no duration_ms key.
	last := lines[len(lines)-1]
	var mark map[string]any
	if err := json.Unmarshal([]byte(last), &mark); err != nil {
		t.Fatal(err)
	}
	if mark["type"] != "mark" || mark["name"] != "mc.progress" {
		t.Errorf("mark record = %v", mark)
	}
	if _, has := mark["duration_ms"]; has {
		t.Error("mark should omit duration_ms")
	}
}

func TestSummaryOutput(t *testing.T) {
	epoch := time.Unix(1000, 0)
	var buf bytes.Buffer
	sum := NewSummary(&buf)
	reg := NewRegistry()
	reg.Counter("smt.queries").Add(7)
	sum.Metrics = reg
	spans, marks := fixedSpans(epoch)
	feed(sum, spans, marks)
	if err := sum.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"span tree:",
		"engine.run",
		"  engine.job",   // indented one level under engine.run
		"    smt.solve",  // two levels
		"mc.progress ×1", // mark count
		"smt.queries",    // metrics table appended
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Lexicographic path order puts the parent line before its children.
	if strings.Index(out, "engine.run") > strings.Index(out, "engine.job") {
		t.Error("parent should precede child in tree")
	}
}

func TestSummaryEmptyFlushWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := NewSummary(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty summary wrote %q", buf.String())
	}
}

func TestSessionInert(t *testing.T) {
	sess, err := NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if sess.Context(ctx) != ctx {
		t.Error("inert session should return ctx unchanged")
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestSessionTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var summary bytes.Buffer
	sess, err := NewSession(Options{TracePath: path, Summary: &summary})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Metrics == nil {
		t.Fatal("Summary should force the metrics registry on")
	}
	ctx := sess.Context(context.Background())
	MetricsFrom(ctx).Counter("synth.solves").Inc()
	_, sp := Start(ctx, "synth.cegis")
	sp.End()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file invalid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "synth.cegis" {
			found = true
		}
	}
	if !found {
		t.Error("trace file missing synth.cegis span")
	}
	if out := summary.String(); !strings.Contains(out, "synth.cegis") || !strings.Contains(out, "synth.solves") {
		t.Errorf("summary missing span or metric:\n%s", out)
	}
}

func TestProfilingSession(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	sess, err := NewSession(Options{Profiling: Profiling{CPUProfile: cpu, MemProfile: mem}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}
