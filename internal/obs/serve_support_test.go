package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedRegistry builds a registry with deterministic contents, inserted
// in non-alphabetical order so ordering bugs (map iteration) would show.
func fixedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("synth.solves").Add(7)
	r.Counter("mc.states").Add(1234)
	r.Counter("engine.jobs").Add(3)
	h := r.Histogram("smt.solve_ms")
	for _, d := range []time.Duration{
		50 * time.Microsecond,
		500 * time.Microsecond, 700 * time.Microsecond,
		5 * time.Millisecond, 6 * time.Millisecond, 7 * time.Millisecond,
		40 * time.Millisecond,
		300 * time.Millisecond,
		2 * time.Second,
		30 * time.Second,
	} {
		h.Observe(d)
	}
	return r
}

// TestSnapshotFormatGolden pins the -stats-summary metrics table,
// including the new quantile columns, to an exact rendering.
func TestSnapshotFormatGolden(t *testing.T) {
	got := fixedRegistry().Snapshot().Format()
	want := strings.Join([]string{
		"counters:",
		"  engine.jobs             3",
		"  mc.states            1234",
		"  synth.solves            7",
		"histograms (count / mean / p50 / p95 / p99 / max):",
		"  smt.solve_ms        10    3.235925s          7ms          20s          28s          30s",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Snapshot.Format() mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Run it repeatedly: map iteration order must never leak through.
	for i := 0; i < 10; i++ {
		if again := fixedRegistry().Snapshot().Format(); again != got {
			t.Fatalf("Format() not deterministic on run %d", i)
		}
	}
}

// TestPrometheusGolden pins the /metrics exposition to an exact, ordered
// rendering.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(fixedRegistry().Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# HELP transit_engine_jobs transit counter engine.jobs",
		"# TYPE transit_engine_jobs counter",
		"transit_engine_jobs 3",
		"# HELP transit_mc_states transit counter mc.states",
		"# TYPE transit_mc_states counter",
		"transit_mc_states 1234",
		"# HELP transit_synth_solves transit counter synth.solves",
		"# TYPE transit_synth_solves counter",
		"transit_synth_solves 7",
		"# HELP transit_smt_solve_ms transit latency histogram smt.solve_ms (milliseconds)",
		"# TYPE transit_smt_solve_ms histogram",
		`transit_smt_solve_ms_bucket{le="0.1"} 1`,
		`transit_smt_solve_ms_bucket{le="1"} 3`,
		`transit_smt_solve_ms_bucket{le="10"} 6`,
		`transit_smt_solve_ms_bucket{le="100"} 7`,
		`transit_smt_solve_ms_bucket{le="1000"} 8`,
		`transit_smt_solve_ms_bucket{le="10000"} 9`,
		`transit_smt_solve_ms_bucket{le="+Inf"} 10`,
		"transit_smt_solve_ms_sum 32359.25",
		"transit_smt_solve_ms_count 10",
		"# TYPE transit_smt_solve_ms_p50 gauge",
		"transit_smt_solve_ms_p50 7",
		"# TYPE transit_smt_solve_ms_p95 gauge",
		"transit_smt_solve_ms_p95 20000",
		"# TYPE transit_smt_solve_ms_p99 gauge",
		"transit_smt_solve_ms_p99 28000",
		"# TYPE transit_smt_solve_ms_max gauge",
		"transit_smt_solve_ms_max 30000",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramQuantiles sanity-checks the bucket-interpolated estimates
// on a distribution whose answers are computable by hand.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 5ms: all in the (1ms, 10ms] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	hs := HistogramSnapshot{Count: 100, Max: 5 * time.Millisecond}
	for i := range hs.Buckets {
		hs.Buckets[i] = h.buckets[i].Load()
	}
	if q := hs.Quantile(0.5); q < time.Millisecond || q > 5*time.Millisecond {
		t.Errorf("p50 = %s, want within (1ms, 5ms]", q)
	}
	if q := hs.Quantile(1); q != 5*time.Millisecond {
		t.Errorf("p100 = %s, want exactly max (5ms)", q)
	}
	if q := hs.Quantile(0.99); q > 5*time.Millisecond {
		t.Errorf("p99 = %s, exceeds observed max", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %s, want 0", q)
	}
}

// TestRecorderRing covers wrap-around: with a 4-slot ring and 10 spans,
// the dump holds the last 4 in order and reports 6 dropped.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(4)
	epoch := time.Now()
	rec.SetEpoch(epoch)
	for i := 1; i <= 10; i++ {
		rec.Span(SpanData{ID: uint64(i), Name: fmt.Sprintf("s%d", i),
			Start: epoch, Duration: time.Millisecond})
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("dump line not JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 5 {
		t.Fatalf("dump has %d lines, want 5 (header + 4 events)", len(lines))
	}
	h := lines[0]
	if h["type"] != "flight" || h["reason"] != "test" || h["recorded"] != float64(10) || h["dropped"] != float64(6) {
		t.Errorf("header = %v", h)
	}
	for i, want := range []string{"s7", "s8", "s9", "s10"} {
		if lines[i+1]["name"] != want {
			t.Errorf("event %d = %v, want name %s", i, lines[i+1]["name"], want)
		}
	}
}

// TestRecorderMetricsTrailer asserts the dump ends with a metrics
// snapshot line when a registry is attached.
func TestRecorderMetricsTrailer(t *testing.T) {
	rec := NewRecorder(8)
	rec.Metrics = fixedRegistry()
	rec.Mark(SpanData{ID: 1, Name: "mc.progress", Start: time.Now()})
	var buf bytes.Buffer
	if err := rec.Dump(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["type"] != "metrics" {
		t.Fatalf("last line type = %v, want metrics", last["type"])
	}
	if _, ok := last["counters"]; !ok {
		t.Error("metrics trailer has no counters field")
	}
}

// TestRecorderConcurrent hammers the ring from many goroutines
// (concurrent span closes, as from parallel engine jobs) while dumps
// run, under the race detector.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(64)
	rec.Metrics = NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec.Span(SpanData{ID: uint64(g*1000 + i), Name: "synth.size", Start: time.Now()})
				if i%100 == 0 {
					rec.Mark(SpanData{ID: uint64(g*1000 + i), Name: "mc.progress", Start: time.Now()})
				}
			}
		}(g)
	}
	for d := 0; d < 4; d++ {
		if err := rec.Dump(io.Discard, "race"); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if err := rec.Dump(io.Discard, "final"); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 64 {
		t.Errorf("ring Len = %d, want full (64)", rec.Len())
	}
}

// TestSessionFlightDump covers the session-level single-shot dump: armed
// recorder, events recorded, first DumpFlight writes the file, second is
// a no-op.
func TestSessionFlightDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ndjson")
	sess, err := NewSession(Options{FlightPath: path, FlightEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sess.Context(context.Background())
	_, sp := Start(ctx, "mc.bfs")
	sp.Mark("mc.progress", Int("states", 42))
	sp.End()
	got, err := sess.DumpFlight("context canceled")
	if err != nil {
		t.Fatal(err)
	}
	if got != path {
		t.Fatalf("DumpFlight path = %q, want %q", got, path)
	}
	if again, err := sess.DumpFlight("second"); err != nil || again != "" {
		t.Fatalf("second DumpFlight = (%q, %v), want no-op", again, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"mc.progress"`) || !strings.Contains(string(data), `"mc.bfs"`) {
		t.Errorf("flight dump missing events:\n%s", data)
	}
	if !strings.Contains(string(data), `"type":"metrics"`) {
		t.Errorf("flight dump missing metrics trailer:\n%s", data)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReportRendersFlightDump feeds a flight dump through Report and
// checks the summary tree, mark counts, and metrics table come out.
func TestReportRendersFlightDump(t *testing.T) {
	rec := NewRecorder(16)
	rec.Metrics = fixedRegistry()
	epoch := time.Now()
	rec.SetEpoch(epoch)
	rec.Span(SpanData{ID: 2, Parent: 1, Name: "synth.cegis", Start: epoch, Duration: 2 * time.Millisecond})
	rec.Mark(SpanData{ID: 3, Parent: 1, Name: "mc.progress", Start: epoch})
	rec.Span(SpanData{ID: 1, Name: "engine.job", Start: epoch, Duration: 5 * time.Millisecond})
	var dump bytes.Buffer
	if err := rec.Dump(&dump, "sigint"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Report(&dump, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`flight dump: reason "sigint"`,
		"span tree:",
		"engine.job",
		"  synth.cegis", // nested under its parent via id-graph paths
		"engine.job/mc.progress ×1",
		"counters:",
		"mc.states",
		"histograms (count / mean / p50 / p95 / p99 / max):",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestReportRejectsGarbage: a corrupt line must fail the report, not be
// silently dropped.
func TestReportRejectsGarbage(t *testing.T) {
	in := strings.NewReader(`{"type":"span","name":"a","span":1,"t_ms":0}` + "\nnot json\n")
	if err := Report(in, io.Discard); err == nil {
		t.Fatal("Report accepted a corrupt line")
	}
}

// TestPprofPrivateMux is the regression test for the DefaultServeMux
// escape: two profiling servers in one process coexist on private muxes,
// both serve /debug/pprof/, and nothing is registered globally.
func TestPprofPrivateMux(t *testing.T) {
	srv1 := httptest.NewServer(NewPprofMux())
	defer srv1.Close()
	srv2 := httptest.NewServer(NewPprofMux())
	defer srv2.Close()
	for _, srv := range []*httptest.Server{srv1, srv2} {
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Errorf("GET %s on %s = %d (%d bytes), want 200 with body",
					path, srv.URL, resp.StatusCode, len(body))
			}
		}
	}
	// The global mux must stay untouched: no package-level registration.
	req, _ := http.NewRequest("GET", "http://x/debug/pprof/", nil)
	if _, pattern := http.DefaultServeMux.Handler(req); pattern != "" {
		t.Errorf("DefaultServeMux serves /debug/pprof/ via pattern %q; private mux leaked", pattern)
	}
}

// TestDisabledSpanHotPathZeroAlloc guards the acceptance criterion that
// with no tracer installed (serving disabled), the span/mark hot path
// allocates nothing.
func TestDisabledSpanHotPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "synth.iteration")
		if sp != nil {
			sp.Mark("synth.round", Int("iteration", 1))
		}
		sp.End()
		_ = c2
	})
	if allocs != 0 {
		t.Errorf("disabled span hot path allocates %v per op, want 0", allocs)
	}
}

// TestDumpFlightConcurrent hammers DumpFlight from many goroutines: the
// dump-once CAS must let exactly one caller write the file, everyone
// else must no-op, and the race detector must stay quiet.
func TestDumpFlightConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ndjson")
	sess, err := NewSession(Options{FlightPath: path, FlightEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := sess.Context(context.Background())
	func() {
		ctx, sp := Start(ctx, "work")
		defer sp.End()
		_, inner := Start(ctx, "inner")
		inner.End()
	}()

	const n = 16
	var wg sync.WaitGroup
	paths := make([]string, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			paths[i], errs[i] = sess.DumpFlight("concurrent dump")
		}(i)
	}
	wg.Wait()

	writers := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if paths[i] != "" {
			writers++
			if paths[i] != path {
				t.Fatalf("goroutine %d wrote to %q", i, paths[i])
			}
		}
	}
	if writers != 1 {
		t.Fatalf("%d goroutines claim to have written the dump, want exactly 1", writers)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"concurrent dump"`) {
		t.Fatalf("dump missing reason:\n%s", data)
	}
}
