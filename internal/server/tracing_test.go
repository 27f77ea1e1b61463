package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transit/internal/obs"
)

// newUnstartedHTTP serves a Server whose worker pool has deliberately not
// been started, so submissions stay deterministically queued.
func newUnstartedHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// clientTraceID is the W3C example trace ID used across these tests.
const clientTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// traceLine is one line of a job trace (a flight dump): the header or a
// span or mark record.
type traceLine struct {
	Type     string         `json:"type"`
	Name     string         `json:"name"`
	Span     uint64         `json:"span"`
	Parent   uint64         `json:"parent"`
	Recorded uint64         `json:"recorded"`
	Attrs    map[string]any `json:"attrs"`
}

// jobTrace is a fetched job trace: its raw NDJSON body and its lines.
type jobTrace struct {
	raw   []byte
	lines []traceLine
}

// span returns the trace's first span or mark with the given name.
func (tr jobTrace) span(name string) (traceLine, bool) {
	for _, l := range tr.lines {
		if l.Name == name {
			return l, true
		}
	}
	return traceLine{}, false
}

// getTrace fetches GET /v1/jobs/{id}/trace and decodes its NDJSON lines.
func getTrace(t *testing.T, url string) (jobTrace, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr jobTrace
	if resp.StatusCode != http.StatusOK {
		return tr, resp
	}
	if tr.raw, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, raw := range bytes.Split(bytes.TrimSpace(tr.raw), []byte("\n")) {
		var l traceLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("trace line %q: %v", raw, err)
		}
		tr.lines = append(tr.lines, l)
	}
	return tr, resp
}

// TestJobTraceEndToEnd is the PR's acceptance test: a job submitted with
// a client-supplied trace ID returns, via GET /v1/jobs/{id}/trace, a
// flight dump whose server.job span carries that trace ID and parents
// the admission, queue-wait, cache-tier, and solve spans, and which
// `transit obs report` renders — and the same run's access-log line
// carries a cache/solve split that sums (up to scheduling slack) to the
// job's observed run time.
func TestJobTraceEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	s, ts := newTestServer(t, Config{AccessLog: NewAccessLogWriter(&logBuf)})

	resp, env := post(t, ts, maxReq(), map[string]string{"X-Transit-Trace": clientTraceID})
	if got := resp.Header.Get("X-Transit-Trace"); got != clientTraceID {
		t.Fatalf("trace echo header = %q, want %q", got, clientTraceID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.HasPrefix(tp, "00-"+clientTraceID+"-") {
		t.Fatalf("traceparent header = %q", tp)
	}
	if env.TraceID != clientTraceID {
		t.Fatalf("envelope trace ID = %q", env.TraceID)
	}
	done := await(t, ts, env.ID)
	if done.Status != string(JobDone) {
		t.Fatalf("status %s: %s", done.Status, done.Error)
	}
	if done.CacheTier != "miss" {
		t.Fatalf("cold job cache tier = %q, want miss", done.CacheTier)
	}
	if done.SolveWaitMS <= 0 {
		t.Fatalf("solve wait missing from envelope: %+v", done)
	}
	// The envelope turns terminal before the server.job root closes and
	// the access line is written; done closes after both.
	if j, ok := s.get(env.ID); ok {
		<-j.done
	}

	tr, tresp := getTrace(t, ts.URL+"/v1/jobs/"+env.ID+"/trace")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	if len(tr.lines) == 0 || tr.lines[0].Type != "flight" || tr.lines[0].Recorded == 0 {
		t.Fatalf("trace does not open with a flight header: %s", tr.raw)
	}
	root, ok := tr.span("server.job")
	if !ok || root.Parent != 0 {
		t.Fatalf("no server.job root in the trace: %s", tr.raw)
	}
	if root.Attrs["job"] != env.ID || root.Attrs["trace"] != clientTraceID ||
		root.Attrs["outcome"] != "done" || root.Attrs["tier"] != "miss" {
		t.Fatalf("root attrs: %v", root.Attrs)
	}
	for _, name := range []string{"server.admission", "server.queue_wait", "engine.cache", "synth.cegis"} {
		if sp, ok := tr.span(name); !ok || sp.Parent != root.Span {
			t.Errorf("span %s missing from job trace or not under server.job: %+v", name, sp)
		}
	}
	if sp, _ := tr.span("engine.cache"); sp.Attrs["tier"] != "miss" {
		t.Errorf("engine.cache tier attr = %v, want miss", sp.Attrs["tier"])
	}
	var report bytes.Buffer
	if err := obs.Report(bytes.NewReader(tr.raw), &report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "server.job") {
		t.Errorf("report of the job trace lacks server.job:\n%s", report.String())
	}

	// The access-log line for the same run: identity matches, and the
	// cache + solve split reconciles with the run time.
	var rec JobEnvelope
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &rec); err != nil {
		t.Fatalf("access log line: %v (%q)", err, logBuf.String())
	}
	if rec.ID != env.ID || rec.TraceID != clientTraceID || rec.Status != "done" || rec.CacheTier != "miss" {
		t.Fatalf("access record identity: %+v", rec)
	}
	sum := rec.CacheWaitMS + rec.SolveWaitMS
	if sum > rec.ElapsedMS+1 {
		t.Errorf("split %v ms exceeds run time %v ms", sum, rec.ElapsedMS)
	}
	if rec.ElapsedMS-sum > 250 {
		t.Errorf("split %v ms unaccounted against run time %v ms", rec.ElapsedMS-sum, rec.ElapsedMS)
	}

	// The warm resubmission's trace shows the cache tier instead of a
	// solve, with a server-generated trace ID.
	_, env2 := post(t, ts, maxReq(), nil)
	if env2.TraceID == "" || env2.TraceID == clientTraceID {
		t.Fatalf("warm job trace ID = %q", env2.TraceID)
	}
	warm := await(t, ts, env2.ID)
	if warm.CacheTier != "mem" {
		t.Fatalf("warm job cache tier = %q", warm.CacheTier)
	}
	if j, ok := s.get(env2.ID); ok {
		<-j.done
	}
	tr2, _ := getTrace(t, ts.URL+"/v1/jobs/"+env2.ID+"/trace")
	if sp, _ := tr2.span("engine.cache"); sp.Attrs["tier"] != "mem" {
		t.Errorf("warm engine.cache tier attr = %v", sp.Attrs["tier"])
	}
	if _, ok := tr2.span("synth.cegis"); ok {
		t.Error("warm job traced a solve span")
	}

	// Queue metrics landed: depth returned to zero, waits were observed.
	snap := s.Metrics().Snapshot()
	depth := int64(-1)
	for _, g := range snap.Gauges {
		if g.Name == "server.queue.depth" {
			depth = g.Value
		}
	}
	if depth != 0 {
		t.Errorf("server.queue.depth = %d after drain to idle", depth)
	}
	waits := false
	for _, h := range snap.Histograms {
		if h.Name == "server.queue.wait_ms" && h.Count >= 2 {
			waits = true
		}
	}
	if !waits {
		t.Error("server.queue.wait_ms histogram missing observations")
	}
}

// TestTraceDedupKeepsOriginalID pins the join semantics: a dedup
// submission with its own trace header joins the original job and gets
// the original trace ID echoed back.
func TestTraceDedupKeepsOriginalID(t *testing.T) {
	s := New(Config{}) // no workers: first job stays queued
	ts := newUnstartedHTTP(t, s)

	resp1, env1 := post(t, ts, maxReq(), map[string]string{"X-Transit-Trace": clientTraceID})
	if resp1.Header.Get("X-Transit-Trace") != clientTraceID {
		t.Fatalf("first echo: %q", resp1.Header.Get("X-Transit-Trace"))
	}
	resp2, env2 := post(t, ts, maxReq(), map[string]string{"X-Transit-Trace": "deadbeef"})
	if !env2.Deduped || env2.ID != env1.ID {
		t.Fatalf("no dedup join: %+v", env2)
	}
	if got := resp2.Header.Get("X-Transit-Trace"); got != clientTraceID {
		t.Fatalf("dedup echo = %q, want the original job's %q", got, clientTraceID)
	}
	s.Start()
	await(t, ts, env1.ID)
	s.Drain(5 * time.Second)
}

// TestMalformedTraceHeaderGetsFreshID pins that bad headers do not fail
// submissions: the server generates an ID instead.
func TestMalformedTraceHeaderGetsFreshID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, env := post(t, ts, maxReq(), map[string]string{"X-Transit-Trace": "not hex!"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if len(env.TraceID) != 32 || env.TraceID == clientTraceID {
		t.Fatalf("generated trace ID = %q", env.TraceID)
	}
	await(t, ts, env.ID)
}

// TestNoTraceDisablesRing: under Config.NoTrace jobs carry no trace ID
// and the trace endpoint 404s, while the job itself still works.
func TestNoTraceDisablesRing(t *testing.T) {
	_, ts := newTestServer(t, Config{NoTrace: true})
	resp, env := post(t, ts, maxReq(), map[string]string{"X-Transit-Trace": clientTraceID})
	if h := resp.Header.Get("X-Transit-Trace"); h != "" {
		t.Fatalf("trace header echoed with tracing off: %q", h)
	}
	if env.TraceID != "" {
		t.Fatalf("trace ID assigned with tracing off: %q", env.TraceID)
	}
	done := await(t, ts, env.ID)
	if done.Status != string(JobDone) {
		t.Fatalf("job failed under -no-trace: %+v", done)
	}
	_, tresp := getTrace(t, ts.URL+"/v1/jobs/"+env.ID+"/trace")
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint status %d with tracing off, want 404", tresp.StatusCode)
	}
}

// TestTracePerfettoFormat checks the ?format=perfetto rendering is a
// Chrome trace-event document containing the job's spans.
func TestTracePerfettoFormat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, env := post(t, ts, maxReq(), nil)
	await(t, ts, env.ID)
	if j, ok := s.get(env.ID); ok {
		<-j.done // the server.job root closes before done does
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/trace?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "server.job" && ev.Ph == "X" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no server.job complete event among %d trace events", len(doc.TraceEvents))
	}
}

// TestLatencySplitFromSpans runs one solve job and one completion job
// under a base context whose tracer collects every span. Each job's
// cache_wait_ms and solve_wait_ms must be the summed durations of its own
// engine.cache and synth.cegis spans, and its access-log line must carry
// the same split as its envelope.
func TestLatencySplitFromSpans(t *testing.T) {
	col := obs.NewCollect()
	var logBuf bytes.Buffer
	base := obs.WithTracer(context.Background(), obs.NewTracer(col))
	s, ts := newTestServer(t, Config{BaseContext: base, Workers: 2, AccessLog: NewAccessLogWriter(&logBuf)})
	_, solveEnv := post(t, ts, maxReq(), nil)
	_, completeEnv := post(t, ts, &JobRequest{
		Kind:     "complete",
		Complete: &CompleteRequest{Builtin: "vi", NumCaches: 2},
	}, nil)
	envs := map[string]JobEnvelope{}
	for _, id := range []string{solveEnv.ID, completeEnv.ID} {
		env := await(t, ts, id)
		if env.Status != string(JobDone) {
			t.Fatalf("job %s: %s %s", id, env.Status, env.Error)
		}
		envs[id] = env
		if j, ok := s.get(id); ok {
			<-j.done // the access line is written before done closes
		}
	}

	// Sum each job's spans, attributing a span to the job named by the
	// server.job span at the root of its ancestry.
	spans := col.Spans()
	byID := map[uint64]obs.SpanData{}
	for _, d := range spans {
		byID[d.ID] = d
	}
	jobOf := func(d obs.SpanData) string {
		for ok := true; ok; d, ok = byID[d.Parent] {
			if d.Name == "server.job" {
				for _, a := range d.Attrs {
					if a.Key == "job" {
						return a.Value.(string)
					}
				}
			}
		}
		return ""
	}
	cacheSum, solveSum := map[string]time.Duration{}, map[string]time.Duration{}
	for _, d := range spans {
		switch d.Name {
		case "engine.cache":
			cacheSum[jobOf(d)] += d.Duration
		case "synth.cegis":
			solveSum[jobOf(d)] += d.Duration
		}
	}

	recs := map[string]JobEnvelope{}
	for _, line := range bytes.Split(bytes.TrimSpace(logBuf.Bytes()), []byte("\n")) {
		var rec JobEnvelope
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		recs[rec.ID] = rec
	}
	for id, env := range envs {
		if cacheSum[id] == 0 || solveSum[id] == 0 {
			t.Fatalf("job %s: no engine.cache or synth.cegis spans collected", id)
		}
		if env.CacheWaitMS != ms(cacheSum[id]) || env.SolveWaitMS != ms(solveSum[id]) {
			t.Errorf("job %s: envelope cache/solve = %v/%v ms, span sums %v/%v ms",
				id, env.CacheWaitMS, env.SolveWaitMS, ms(cacheSum[id]), ms(solveSum[id]))
		}
		rec, ok := recs[id]
		if !ok {
			t.Fatalf("job %s: no access-log line", id)
		}
		if rec.CacheWaitMS != env.CacheWaitMS || rec.SolveWaitMS != env.SolveWaitMS {
			t.Errorf("job %s: access log cache/solve = %v/%v ms, envelope %v/%v ms",
				id, rec.CacheWaitMS, rec.SolveWaitMS, env.CacheWaitMS, env.SolveWaitMS)
		}
	}
}

// TestAccessLogRotation exercises the size-based rotation of a
// file-backed access log.
func TestAccessLogRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.ndjson")
	l, err := OpenAccessLog(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rec := JobEnvelope{ID: "j-000001", Kind: "solve", Key: strings.Repeat("k", 64),
		Status: "done", SubmittedAt: time.Unix(0, 0), ElapsedMS: 1}
	for i := 0; i < 64; i++ {
		l.Log(rec, "client")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("no rotated file: %v", err)
	}
	if cur.Size() > 2048 || old.Size() > 2048 {
		t.Fatalf("rotation missed the cap: cur %d, old %d", cur.Size(), old.Size())
	}
	// Every line in the current file is valid NDJSON.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var got JobEnvelope
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
	}
	// A nil log is a no-op.
	var nilLog *AccessLog
	nilLog.Log(rec, "client")
	if err := nilLog.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightSnapshot: the server section of a flight dump reflects live
// queue state and rate-limiter configuration.
func TestFlightSnapshot(t *testing.T) {
	s := New(Config{Rate: 5, QueueDepth: 8})
	ts := newUnstartedHTTP(t, s)
	_, env := post(t, ts, maxReq(), nil)

	st, ok := s.FlightSnapshot().(FlightState)
	if !ok {
		t.Fatalf("snapshot type %T", s.FlightSnapshot())
	}
	if st.QueueDepth != 1 || st.QueueCap != 8 {
		t.Fatalf("queue picture: %+v", st)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].ID != env.ID || st.Jobs[0].Status != string(JobQueued) {
		t.Fatalf("jobs picture: %+v", st.Jobs)
	}
	if st.RateLimiter == nil || st.RateLimiter.Rate != 5 || st.RateLimiter.Clients != 1 {
		t.Fatalf("rate limiter picture: %+v", st.RateLimiter)
	}
	// And it marshals (it rides into an NDJSON dump line).
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	s.Start()
	await(t, ts, env.ID)
	s.Drain(5 * time.Second)

	done, _ := s.FlightSnapshot().(FlightState)
	if done.QueueDepth != 0 || len(done.Jobs) != 0 || !done.Draining {
		t.Fatalf("post-drain snapshot: %+v", done)
	}
}

// TestTraceparentEdgeCases drives the W3C header path end-to-end:
// which submitted header values become the job's trace ID and which are
// discarded in favor of a generated one.
func TestTraceparentEdgeCases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const w3c = "00-" + clientTraceID + "-b7ad6b7169203331-01"
	cases := []struct {
		name string
		hdr  map[string]string
		want string // "" = a fresh generated ID is expected
	}{
		{"w3c traceparent", map[string]string{"Traceparent": w3c}, clientTraceID},
		{"uppercase trace-id", map[string]string{"Traceparent": "00-" + strings.ToUpper(clientTraceID) + "-B7AD6B7169203331-01"}, clientTraceID},
		{"bare header wins over traceparent", map[string]string{"X-Transit-Trace": "abc123", "Traceparent": w3c}, "abc123"},
		{"all-zero trace-id", map[string]string{"Traceparent": "00-00000000000000000000000000000000-b7ad6b7169203331-01"}, ""},
		{"wrong field widths", map[string]string{"Traceparent": "00-abc-def-01"}, ""},
		{"too many fields", map[string]string{"Traceparent": w3c + "-extra"}, ""},
		{"overlong bare id", map[string]string{"X-Transit-Trace": strings.Repeat("a", 33)}, ""},
		{"garbage bare id falls through to traceparent", map[string]string{"X-Transit-Trace": "not hex!", "Traceparent": w3c}, clientTraceID},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, env := post(t, ts, maxReq(), c.hdr)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status %d", resp.StatusCode)
			}
			defer await(t, ts, env.ID)
			if c.want != "" {
				if env.TraceID != c.want {
					t.Fatalf("trace ID = %q, want %q", env.TraceID, c.want)
				}
				return
			}
			if len(env.TraceID) != 32 || env.TraceID == clientTraceID ||
				strings.Trim(env.TraceID, "0") == "" {
				t.Fatalf("expected a fresh generated ID, got %q", env.TraceID)
			}
		})
	}
}
