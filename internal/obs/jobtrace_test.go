package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseTraceHeader(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"DEADBEEFDEADBEEFDEADBEEFDEADBEEF", "deadbeefdeadbeefdeadbeefdeadbeef", true},
		{"abc123", "abc123", true},
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", "0af7651916cd43dd8448eb211c80319c", true},
		{"  cafe  ", "cafe", true},
		{"", "", false},
		{"not-hex-at-all", "", false},
		{"00000000000000000000000000000000", "", false},
		{strings.Repeat("a", 33), "", false},
		{"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", "", false},
	}
	for _, c := range cases {
		got, ok := ParseTraceHeader(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseTraceHeader(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestNewTraceIDShape(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	for _, id := range []string{a, b} {
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("NewTraceID() = %q, want 32 hex chars", id)
		}
		if got, ok := ParseTraceHeader(id); !ok || got != id {
			t.Fatalf("NewTraceID() %q does not round-trip ParseTraceHeader", id)
		}
	}
	if a == b {
		t.Fatalf("two NewTraceID calls returned the same ID %q", a)
	}
}

func TestFormatTraceparent(t *testing.T) {
	got := FormatTraceparent("abc", 7)
	want := "00-00000000000000000000000000000abc-0000000000000007-01"
	if got != want {
		t.Fatalf("FormatTraceparent = %q, want %q", got, want)
	}
	if id, ok := ParseTraceHeader(got); !ok || id != "00000000000000000000000000000abc" {
		t.Fatalf("FormatTraceparent output does not parse back: %q → (%q, %v)", got, id, ok)
	}
}

// TestChildTracerSharedIDs checks that a child tracer tees spans into its
// extra exporter while the parent exporters still see them, and that span
// IDs never collide across the tracer family.
func TestChildTracerSharedIDs(t *testing.T) {
	shared := NewCollect()
	parent := NewTracer(shared)
	ring := NewCollect()
	child := parent.Child(ring)
	if child.Epoch != parent.Epoch {
		t.Fatalf("child epoch %v != parent epoch %v", child.Epoch, parent.Epoch)
	}

	pctx, psp := Start(WithTracer(context.Background(), parent), "parent.span")
	_ = pctx
	cctx, csp := Start(WithTracer(context.Background(), child), "child.span")
	_, inner := Start(cctx, "child.inner")
	inner.End()
	csp.End()
	psp.End()

	ringSpans := ring.Spans()
	if len(ringSpans) != 2 {
		t.Fatalf("ring saw %d spans, want 2 (child only)", len(ringSpans))
	}
	all := shared.Spans()
	if len(all) != 3 {
		t.Fatalf("shared exporter saw %d spans, want 3", len(all))
	}
	seen := map[uint64]bool{}
	for _, d := range all {
		if seen[d.ID] {
			t.Fatalf("duplicate span ID %d across parent and child tracers", d.ID)
		}
		seen[d.ID] = true
	}
}

// TestSpanEmit checks pre-timed child spans: correct parentage, the given
// start/duration, and drop-after-End semantics.
func TestSpanEmit(t *testing.T) {
	col := NewCollect()
	tr := NewTracer(col)
	_, root := Start(WithTracer(context.Background(), tr), "server.job")
	start := time.Now().Add(-50 * time.Millisecond)
	root.Emit("server.admission", start, 2*time.Millisecond, Str("client", "c1"))
	root.Emit("server.queue_wait", start.Add(2*time.Millisecond), 10*time.Millisecond)
	root.End()
	root.Emit("late", time.Now(), time.Millisecond) // after End: dropped

	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (admission, queue_wait, root)", len(spans))
	}
	rootData := spans[2]
	if rootData.Name != "server.job" {
		t.Fatalf("last-closed span is %q, want server.job", rootData.Name)
	}
	adm := spans[0]
	if adm.Name != "server.admission" || adm.Parent != rootData.ID ||
		!adm.Start.Equal(start) || adm.Duration != 2*time.Millisecond {
		t.Fatalf("admission span wrong: %+v (want parent %d, start %v, dur 2ms)", adm, rootData.ID, start)
	}
	if adm.Path != "server.job/server.admission" {
		t.Fatalf("admission path %q, want server.job/server.admission", adm.Path)
	}
	var nilSpan *Span
	nilSpan.Emit("noop", time.Now(), time.Second) // must not panic
}

// TestJobRingDumpReport feeds a per-job ring through a child tracer, as
// the serving path does, and checks its dump is the job's trace: a
// flight header, every span linked to the server.job root by parent ID,
// and a report that renders the nesting.
func TestJobRingDumpReport(t *testing.T) {
	ring := NewRecorder(64)
	sess := NewTracer()
	tr := sess.Child(ring)
	ring.SetEpoch(tr.Epoch)

	ctx, root := Start(WithTracer(context.Background(), tr), "server.job", Str("trace", "feedface"))
	root.Emit("server.admission", tr.Epoch, time.Millisecond)
	_, cache := Start(ctx, "engine.cache", Str("tier", "mem"))
	cache.Mark("cache.probe")
	cache.End()
	_, solve := Start(ctx, "synth.cegis")
	solve.End()
	root.End()

	var dump bytes.Buffer
	if err := ring.Dump(&dump, "job j1"); err != nil {
		t.Fatal(err)
	}
	type line struct {
		Type     string         `json:"type"`
		Name     string         `json:"name"`
		Span     uint64         `json:"span"`
		Parent   uint64         `json:"parent"`
		Recorded uint64         `json:"recorded"`
		Dropped  uint64         `json:"dropped"`
		Attrs    map[string]any `json:"attrs"`
	}
	var lines []line
	for _, raw := range bytes.Split(bytes.TrimSpace(dump.Bytes()), []byte("\n")) {
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("dump line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 6 || lines[0].Type != "flight" || lines[0].Recorded != 5 || lines[0].Dropped != 0 {
		t.Fatalf("want a flight header and 5 events, got %+v", lines)
	}
	byName := map[string]line{}
	for _, l := range lines[1:] {
		byName[l.Name] = l
	}
	rootID := byName["server.job"].Span
	if rootID == 0 || byName["server.job"].Attrs["trace"] != "feedface" {
		t.Fatalf("server.job line: %+v", byName["server.job"])
	}
	for _, name := range []string{"server.admission", "engine.cache", "synth.cegis"} {
		if byName[name].Parent != rootID {
			t.Errorf("%s parent = %d, want server.job's %d", name, byName[name].Parent, rootID)
		}
	}
	if l := byName["cache.probe"]; l.Type != "mark" || l.Parent != byName["engine.cache"].Span {
		t.Errorf("cache.probe should be a mark under engine.cache, got %+v", l)
	}
	if byName["engine.cache"].Attrs["tier"] != "mem" {
		t.Errorf("tier attr lost: %v", byName["engine.cache"].Attrs)
	}

	var out bytes.Buffer
	if err := Report(&dump, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{`flight dump: reason "job j1"`, "5 events recorded, 0 dropped",
		"\nserver.job ", "\n  engine.cache ", "\n  synth.cegis ", "server.job/engine.cache/cache.probe ×1"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestReportOrphanSpan checks that a span whose parent fell out of the
// ring reports as a root of its own instead of vanishing, and that the
// header counts the evicted events.
func TestReportOrphanSpan(t *testing.T) {
	epoch := time.Now()
	ring := NewRecorder(2)
	ring.SetEpoch(epoch)
	ring.Span(SpanData{ID: 99, Name: "evicted", Start: epoch, Duration: time.Millisecond})
	for i := uint64(1); i <= 7; i++ {
		ring.Span(SpanData{ID: 100 + i, Name: "filler", Start: epoch, Duration: time.Millisecond})
	}
	ring.Span(SpanData{ID: 5, Parent: 99, Name: "orphan", Start: epoch, Duration: time.Millisecond})
	ring.Span(SpanData{ID: 6, Name: "root", Start: epoch, Duration: time.Millisecond})
	var dump, out bytes.Buffer
	if err := ring.Dump(&dump, "test"); err != nil {
		t.Fatal(err)
	}
	if err := Report(&dump, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"10 events recorded, 8 dropped", "\norphan ", "\nroot "} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "evicted") || strings.Contains(text, "filler") {
		t.Errorf("report shows evicted spans:\n%s", text)
	}
}

func TestGaugeRegistry(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("server.queue.depth")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(5)
	if v := g.Value(); v != 6 {
		t.Fatalf("gauge value = %d, want 6", v)
	}
	g.Set(3)
	reg.Gauge("diskcache.segments").Set(2)
	snap := reg.Snapshot()
	if len(snap.Gauges) != 2 || snap.Gauges[0].Name != "diskcache.segments" ||
		snap.Gauges[1].Name != "server.queue.depth" || snap.Gauges[1].Value != 3 {
		t.Fatalf("gauge snapshot wrong: %+v", snap.Gauges)
	}
	if !strings.Contains(snap.Format(), "gauges:") {
		t.Fatalf("Format missing gauges section:\n%s", snap.Format())
	}
	var prom bytes.Buffer
	if err := WritePrometheus(snap, &prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE transit_server_queue_depth gauge",
		"transit_server_queue_depth 3",
		"transit_diskcache_segments 2",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}

	// nil safety
	var nilReg *Registry
	nilReg.Gauge("x").Set(1)
	var nilG *Gauge
	nilG.Inc()
	nilG.Dec()
	nilG.Add(2)
	nilG.Set(9)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

// TestRecorderAddSnapshot checks that registered auxiliary sections land
// in the dump right after the header.
func TestRecorderAddSnapshot(t *testing.T) {
	rec := NewRecorder(8)
	rec.AddSnapshot("server", func() any {
		return map[string]any{"queue_depth": 3, "inflight": 1}
	})
	rec.Span(SpanData{ID: 1, Name: "x", Start: time.Now(), Duration: time.Millisecond})
	var buf bytes.Buffer
	if err := rec.Dump(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3 (header, server snapshot, span):\n%s", len(lines), buf.String())
	}
	var snap struct {
		Type string         `json:"type"`
		Data map[string]any `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Type != "server" || snap.Data["queue_depth"] != float64(3) {
		t.Fatalf("snapshot line wrong: %+v", snap)
	}
}

// TestDisabledEmitZeroAlloc extends the zero-alloc guarantee to the new
// serving-path primitives: with no tracer, Start+Emit+End and TracerFrom
// allocate nothing. This pins the -no-trace acceptance criterion at the
// obs layer.
func TestDisabledEmitZeroAlloc(t *testing.T) {
	ctx := context.Background()
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		if tr := TracerFrom(ctx); tr != nil {
			t.Fatal("unexpected tracer")
		}
		c2, sp := Start(ctx, "server.job")
		sp.Emit("server.admission", start, time.Millisecond)
		sp.End()
		_ = c2
	})
	if allocs != 0 {
		t.Errorf("disabled serve hot path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkDisabledTracePath is the pinned benchmark for the -no-trace
// fast path: one context lookup, one branch, zero allocations.
func BenchmarkDisabledTracePath(b *testing.B) {
	ctx := context.Background()
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "server.job")
		sp.Emit("server.admission", start, time.Millisecond)
		sp.End()
	}
}
