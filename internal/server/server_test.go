package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"transit/internal/engine"
	"transit/internal/engine/diskcache"
	"transit/internal/lang"
)

// maxReq is the standing test problem: max(a, b) from one concolic
// example, solvable in well under a second.
func maxReq() *JobRequest {
	return &JobRequest{
		Kind: "solve",
		Solve: &lang.SolveDecl{
			NumCaches: 3,
			Vars:      []lang.SolveVar{{Name: "a", Type: "Int"}, {Name: "b", Type: "Int"}},
			Output:    lang.SolveVar{Name: "o", Type: "Int"},
			Examples: []lang.SolveExample{{
				Pre:  "true",
				Post: "o >= a & o >= b & (o = a | o = b)",
			}},
			MaxSize: 8,
		},
	}
}

// minReq is a distinct problem (min instead of max) for tests needing
// two different keys.
func minReq() *JobRequest {
	r := maxReq()
	r.Solve.Examples[0].Post = "a >= o & b >= o & (o = a | o = b)"
	return r
}

func post(t *testing.T, ts *httptest.Server, req *JobRequest, hdr map[string]string) (*http.Response, JobEnvelope) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env JobEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp, env
}

func await(t *testing.T, ts *httptest.Server, id string) JobEnvelope {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var env JobEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jobState(env.Status).terminal() {
			return env
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return JobEnvelope{}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(5 * time.Second)
	})
	return s, ts
}

func TestSolveJobEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, env := post(t, ts, maxReq(), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if env.ID == "" || env.Key == "" || !strings.HasPrefix(env.Key, "solve:") {
		t.Fatalf("bad envelope: %+v", env)
	}
	done := await(t, ts, env.ID)
	if done.Status != string(JobDone) {
		t.Fatalf("status %s, error %q", done.Status, done.Error)
	}
	var res SolveResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Expr, "ite") {
		t.Fatalf("unexpected expression %q", res.Expr)
	}
	if res.Stats.Enumerated == 0 || res.Stats.SMTQueries == 0 {
		t.Fatalf("empty stats: %+v", res.Stats)
	}
	if done.CacheMisses != 1 || done.CacheHits != 0 {
		t.Fatalf("cold job cache info: %+v", done)
	}

	// A resubmission after completion is a fresh job served from cache,
	// with a byte-identical result.
	_, env2 := post(t, ts, maxReq(), nil)
	if env2.ID == env.ID {
		t.Fatal("completed job must not dedup")
	}
	done2 := await(t, ts, env2.ID)
	if done2.CacheHits != 1 {
		t.Fatalf("warm job cache info: %+v", done2)
	}
	if !bytes.Equal(done.Result, done2.Result) {
		t.Fatalf("warm result differs:\n%s\n%s", done.Result, done2.Result)
	}
	// Without a base context the engine's lookup counters land in the
	// server's registry: one cold miss, one warm memory hit.
	if hits, misses := s.Metrics().Get("engine.cache.mem_hits"), s.Metrics().Get("engine.cache.misses"); hits != 1 || misses != 1 {
		t.Fatalf("engine.cache mem_hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

func TestDedupWhileInFlight(t *testing.T) {
	// No workers started: the first submission stays queued, so the
	// second deterministically joins it.
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, env1 := post(t, ts, maxReq(), nil)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	resp2, env2 := post(t, ts, maxReq(), nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dedup submit status %d, want 200", resp2.StatusCode)
	}
	if !env2.Deduped || env2.ID != env1.ID {
		t.Fatalf("dedup did not join: %+v vs %+v", env2, env1)
	}
	// A different problem is not deduped.
	resp3, env3 := post(t, ts, minReq(), nil)
	if resp3.StatusCode != http.StatusAccepted || env3.ID == env1.ID {
		t.Fatalf("distinct problem joined: %d %+v", resp3.StatusCode, env3)
	}
	if got := s.Metrics().Get("server.dedup_hits"); got != 1 {
		t.Fatalf("dedup_hits = %d", got)
	}
	s.Start()
	if env := await(t, ts, env1.ID); env.Status != string(JobDone) {
		t.Fatalf("deduped job failed: %+v", env)
	}
	s.Drain(5 * time.Second)
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Config{QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := post(t, ts, maxReq(), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ := post(t, ts, minReq(), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-queue submit status %d, want 503", resp.StatusCode)
	}
	if got := s.Metrics().Get("server.queue_rejected"); got != 1 {
		t.Fatalf("queue_rejected = %d", got)
	}
	s.Start()
	s.Drain(5 * time.Second)
}

func TestRateLimitPerClient(t *testing.T) {
	s := New(Config{Rate: 1, Burst: 1})
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	alice := map[string]string{"X-Transit-Client": "alice"}
	bob := map[string]string{"X-Transit-Client": "bob"}
	if resp, _ := post(t, ts, maxReq(), alice); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d", resp.StatusCode)
	}
	// Same instant, same client: bucket empty.
	if resp, _ := post(t, ts, maxReq(), alice); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second same-client should be limited, got %d", resp.StatusCode)
	}
	// Another client has its own bucket. (Same problem — dedup joins it,
	// which must still spend Bob's token first.)
	if resp, _ := post(t, ts, maxReq(), bob); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client should pass, got %d", resp.StatusCode)
	}
	// A second later Alice's bucket has refilled.
	now = now.Add(time.Second)
	if resp, _ := post(t, ts, maxReq(), alice); resp.StatusCode != http.StatusOK {
		t.Fatalf("refilled client, got %d", resp.StatusCode)
	}
	if got := s.Metrics().Get("server.rate_limited"); got != 1 {
		t.Fatalf("rate_limited = %d", got)
	}
	s.Start()
	s.Drain(5 * time.Second)
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, env := post(t, ts, maxReq(), nil)

	hr, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+env.ID, nil)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var got JobEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.Status != string(JobCanceled) {
		t.Fatalf("cancel: %d %+v", resp.StatusCode, got)
	}
	// Canceling again conflicts.
	hr, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+env.ID, nil)
	resp, err = ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status %d", resp.StatusCode)
	}
	// The canceled key no longer blocks resubmission by dedup.
	if _, env2 := post(t, ts, maxReq(), nil); env2.Deduped {
		t.Fatal("canceled job still dedups")
	}
	s.Start()
	s.Drain(5 * time.Second)
}

// TestFinishedJobsBounded checks that the server forgets the oldest
// finished jobs beyond its limit: GET /v1/jobs lists only the newest
// ones, and a forgotten id answers 404 like an unknown one.
func TestFinishedJobsBounded(t *testing.T) {
	s := New(Config{})
	s.keep = 2
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < s.keep+2; i++ {
		_, env := post(t, ts, maxReq(), nil)
		if done := await(t, ts, env.ID); done.Status != string(JobDone) {
			t.Fatalf("job %s: %+v", env.ID, done)
		}
		ids = append(ids, env.ID)
	}
	// A job's status is final before its worker forgets older jobs;
	// draining waits for the workers.
	s.Drain(5 * time.Second)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []JobEnvelope }
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, env := range list.Jobs {
		listed = append(listed, env.ID)
	}
	if !reflect.DeepEqual(listed, ids[2:]) {
		t.Errorf("GET /v1/jobs lists %v, want the newest %v", listed, ids[2:])
	}
	for i, id := range ids {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("GET /v1/jobs/%s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
}

func TestDrainRejectsLateSubmissions(t *testing.T) {
	s := New(Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, env := post(t, ts, maxReq(), nil)
	await(t, ts, env.ID)

	s.Drain(10 * time.Second)
	resp, _ := post(t, ts, maxReq(), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503", resp.StatusCode)
	}
	// Drain is idempotent.
	s.Drain(time.Second)
}

// streamEvents reads a finished job's whole SSE stream and returns its
// job.state statuses, its last job.state line decoded as an envelope,
// and the names of its span lines, checking that every line is valid
// JSON carrying the job's id: a job.state line is the job's envelope, a
// span line the record schema with a job field.
func streamEvents(t *testing.T, ts *httptest.Server, id string) (states []string, last JobEnvelope, spans []string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var rec struct {
			Type   string   `json:"type"`
			ID     string   `json:"id"`
			Job    string   `json:"job"`
			Status string   `json:"status"`
			Name   string   `json:"name"`
			Span   uint64   `json:"span"`
			TMS    *float64 `json:"t_ms"`
		}
		data := []byte(line[len("data: "):])
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if rec.ID != id && rec.Job != id {
			t.Fatalf("foreign job in stream: %+v", rec)
		}
		switch rec.Type {
		case "job.state":
			if rec.ID != id {
				t.Fatalf("job.state line without the job's envelope id: %q", line)
			}
			states = append(states, rec.Status)
			last = JobEnvelope{}
			if err := json.Unmarshal(data, &last); err != nil {
				t.Fatal(err)
			}
		case "span":
			if rec.Job != id {
				t.Fatalf("span line without the job's id: %q", line)
			}
			if rec.Span == 0 || rec.TMS == nil {
				t.Fatalf("span line lacks the record schema: %q", line)
			}
			spans = append(spans, rec.Name)
		default:
			t.Fatalf("unexpected line type %q: %q", rec.Type, line)
		}
	}
	return states, last, spans
}

func TestEventsStreamReplaysHistory(t *testing.T) {
	// Two completion workers close engine spans concurrently.
	_, ts := newTestServer(t, Config{Workers: 2})
	_, env := post(t, ts, maxReq(), nil)
	await(t, ts, env.ID)
	states, _, spans := streamEvents(t, ts, env.ID)
	want := []string{"queued", "running", "done"}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	// A solve job's one engine span is its cache lookup.
	if fmt.Sprint(spans) != "[engine.cache]" {
		t.Fatalf("span lines %v, want [engine.cache]", spans)
	}

	_, env = post(t, ts, &JobRequest{Kind: "complete", Complete: &CompleteRequest{Builtin: "vi", NumCaches: 2}}, nil)
	await(t, ts, env.ID)
	states, _, spans = streamEvents(t, ts, env.ID)
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("complete job states %v, want %v", states, want)
	}
	count := map[string]int{}
	for _, name := range spans {
		if !strings.HasPrefix(name, "engine.") {
			t.Fatalf("non-engine span %q on the job stream", name)
		}
		count[name]++
	}
	if count["engine.run"] != 1 || count["engine.job"] == 0 || count["engine.cache"] == 0 {
		t.Fatalf("complete job span lines %v, want one engine.run plus engine.job and engine.cache lines", count)
	}
}

func TestEventsStreamWithoutTracing(t *testing.T) {
	_, ts := newTestServer(t, Config{NoTrace: true})
	_, env := post(t, ts, maxReq(), nil)
	await(t, ts, env.ID)
	states, _, spans := streamEvents(t, ts, env.ID)
	if fmt.Sprint(states) != "[queued running done]" || len(spans) != 0 {
		t.Fatalf("states %v, spans %v; want the three states and no span lines", states, spans)
	}
}

// TestJobRecordsAgree pins the one status record: for a solve job and a
// completion job, the terminal job.state event, GET /v1/jobs/{id}
// without its result, and the access-log line without its client decode
// to equal envelopes. The solve job counts one miss cold and, resubmitted,
// one memory hit.
func TestJobRecordsAgree(t *testing.T) {
	var logBuf bytes.Buffer
	s, ts := newTestServer(t, Config{Workers: 2, AccessLog: NewAccessLogWriter(&logBuf)})
	client := map[string]string{"X-Transit-Client": "alice"}
	reqs := []*JobRequest{
		maxReq(),
		{Kind: "complete", Complete: &CompleteRequest{Builtin: "vi", NumCaches: 2}},
		maxReq(),
	}
	var envs []JobEnvelope
	for _, req := range reqs {
		_, env := post(t, ts, req, client)
		done := await(t, ts, env.ID)
		if done.Status != string(JobDone) {
			t.Fatalf("job %s: %s %s", env.ID, done.Status, done.Error)
		}
		if j, ok := s.get(env.ID); ok {
			<-j.done // the access line is written before done closes
		}
		envs = append(envs, done)
	}

	type accessLine struct {
		JobEnvelope
		Client string `json:"client"`
	}
	access := map[string]accessLine{}
	for _, line := range bytes.Split(bytes.TrimSpace(logBuf.Bytes()), []byte("\n")) {
		var rec accessLine
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		access[rec.ID] = rec
	}
	for _, env := range envs {
		got := env
		got.Result = nil
		_, sse, _ := streamEvents(t, ts, env.ID)
		if !reflect.DeepEqual(sse, got) {
			t.Errorf("job %s: terminal job.state event\n%+v\ndiffers from GET\n%+v", env.ID, sse, got)
		}
		line, ok := access[env.ID]
		if !ok || line.Client != "alice" {
			t.Fatalf("job %s: access line %+v, want one with client alice", env.ID, line)
		}
		if !reflect.DeepEqual(line.JobEnvelope, got) {
			t.Errorf("job %s: access-log line\n%+v\ndiffers from GET\n%+v", env.ID, line.JobEnvelope, got)
		}
	}

	cold, complete, warm := envs[0], envs[1], envs[2]
	if cold.CacheMisses != 1 || cold.CacheHits != 0 || cold.CacheTier != "miss" {
		t.Errorf("cold solve cache fields: %+v", cold)
	}
	if warm.CacheHits != 1 || warm.CacheMisses != 0 || warm.CacheTier != "mem" {
		t.Errorf("warm solve cache fields: %+v", warm)
	}
	if complete.CacheMisses == 0 || complete.CacheTier != "miss" {
		t.Errorf("cold completion cache fields: %+v", complete)
	}
}

// ownDone is a context whose Done channel is its own rather than a
// cancelCtx's, so the context package watches each child derived from
// it with a goroutine until the child is cancelled.
type ownDone struct {
	context.Context
	done chan struct{}
}

func (c ownDone) Done() <-chan struct{} { return c.done }

// TestJobTimeoutReleasesJobContexts checks that a job run under
// Config.JobTimeout cancels every context it derives from BaseContext:
// a child left uncancelled keeps one watcher goroutine per job alive for
// the life of the server.
func TestJobTimeoutReleasesJobContexts(t *testing.T) {
	base := ownDone{Context: context.Background(), done: make(chan struct{})}
	_, ts := newTestServer(t, Config{JobTimeout: time.Minute, BaseContext: base})
	// One job first, so the HTTP connection's goroutines are in the
	// baseline.
	_, env := post(t, ts, maxReq(), nil)
	await(t, ts, env.ID)
	before := runtime.NumGoroutine()
	const jobs = 10
	for i := 0; i < jobs; i++ {
		_, env := post(t, ts, maxReq(), nil)
		if done := await(t, ts, env.ID); done.Status != string(JobDone) {
			t.Fatalf("job %s: %s", done.Status, done.Error)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := runtime.NumGoroutine() - before
		if leaked < jobs/2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind by %d finished jobs", leaked, jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]*JobRequest{
		"unknown kind":    {Kind: "frobnicate"},
		"missing payload": {Kind: "solve"},
		"bad type": {Kind: "solve", Solve: &lang.SolveDecl{
			NumCaches: 3,
			Vars:      []lang.SolveVar{{Name: "a", Type: "Quux"}},
			Output:    lang.SolveVar{Name: "o", Type: "Int"},
			Examples:  []lang.SolveExample{{Post: "true"}},
		}},
		"bad syntax": {Kind: "solve", Solve: &lang.SolveDecl{
			NumCaches: 3,
			Vars:      []lang.SolveVar{{Name: "a", Type: "Int"}},
			Output:    lang.SolveVar{Name: "o", Type: "Int"},
			Examples:  []lang.SolveExample{{Post: "o = ) a"}},
		}},
		"no examples": {Kind: "solve", Solve: &lang.SolveDecl{
			NumCaches: 3,
			Output:    lang.SolveVar{Name: "o", Type: "Int"},
		}},
		"both sources": {Kind: "complete", Complete: &CompleteRequest{Source: "x", Builtin: "vi"}},
		"bad builtin":  {Kind: "complete", Complete: &CompleteRequest{Builtin: "nope"}},
	} {
		resp, _ := post(t, ts, req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestCompleteBuiltinJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, env := post(t, ts, &JobRequest{
		Kind:     "complete",
		Complete: &CompleteRequest{Builtin: "vi", NumCaches: 3},
	}, nil)
	done := await(t, ts, env.ID)
	if done.Status != string(JobDone) {
		t.Fatalf("status %s: %s", done.Status, done.Error)
	}
	var res CompleteResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "VI" || res.Transitions == 0 || len(res.TransitionsText) == 0 {
		t.Fatalf("thin result: %+v", res)
	}
}

// TestPersistentCacheAcrossServers is the PR's e2e acceptance test: two
// sequential server processes share a -cache-dir; the second answers the
// same request from the persistent cache — verified by the job's disk
// tier and the engine.cache.disk_hits counter — with a byte-identical
// result.
func TestPersistentCacheAcrossServers(t *testing.T) {
	dir := t.TempDir()

	openServer := func() (*Server, *httptest.Server, *diskcache.Store) {
		store, err := diskcache.Open(dir, diskcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Cache: engine.NewCacheWithBackend(store)})
		s.Start()
		return s, httptest.NewServer(s.Handler()), store
	}

	// First server lifetime: cold solve, then clean shutdown.
	s1, ts1, store1 := openServer()
	_, env1 := post(t, ts1, maxReq(), nil)
	cold := await(t, ts1, env1.ID)
	if cold.Status != string(JobDone) || cold.CacheMisses != 1 {
		t.Fatalf("cold run: %+v", cold)
	}
	ts1.Close()
	s1.Drain(10 * time.Second)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second server lifetime over the same directory.
	s2, ts2, store2 := openServer()
	defer func() { ts2.Close(); s2.Drain(5 * time.Second); store2.Close() }()
	_, env2 := post(t, ts2, maxReq(), nil)
	warm := await(t, ts2, env2.ID)
	if warm.Status != string(JobDone) {
		t.Fatalf("warm run: %+v", warm)
	}
	if warm.CacheHits != 1 || warm.CacheMisses != 0 || warm.CacheTier != "disk" {
		t.Fatalf("warm run not served from the disk tier: %+v", warm)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Fatalf("results differ across restart:\ncold %s\nwarm %s", cold.Result, warm.Result)
	}
	// The hit surfaced in /metrics via the registry.
	if got := s2.Metrics().Get("engine.cache.disk_hits"); got != 1 {
		t.Fatalf("engine.cache.disk_hits = %d, want 1", got)
	}

	var stats StatsSnapshot
	resp, err := ts2.Client().Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Disk == nil || stats.Disk.Entries == 0 {
		t.Fatalf("stats missing disk backend: %+v", stats)
	}
}

// TestUnknownNamesRejected checks an unknown builtin and an unknown type
// are refused with the shared protocol table's and type-name parser's
// errors.
func TestUnknownNamesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for want, req := range map[string]*JobRequest{
		`unknown builtin \"nope\"`: {Kind: "complete", Complete: &CompleteRequest{Builtin: "nope"}},
		`unknown type \"Quux\"`: {Kind: "solve", Solve: &lang.SolveDecl{
			NumCaches: 3,
			Vars:      []lang.SolveVar{{Name: "a", Type: "Quux"}},
			Output:    lang.SolveVar{Name: "o", Type: "Int"},
			Examples:  []lang.SolveExample{{Post: "true"}},
		}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), want) {
			t.Errorf("status %d body %q, want 400 with %s", resp.StatusCode, msg.String(), want)
		}
	}
}
