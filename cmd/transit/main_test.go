package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transit/internal/obs/serve"
	"transit/internal/protocols"
)

func TestRunBuiltinVI(t *testing.T) {
	opts := options{numCaches: 2, maxSize: 10, maxStates: 100_000, deadlock: true, dump: true, builtin: "vi"}
	code, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
}

func TestRunBuiltinVIParallelStats(t *testing.T) {
	opts := options{numCaches: 2, maxSize: 10, maxStates: 100_000, deadlock: true, builtin: "vi",
		workers: 4, obs: serve.Flags{Stats: true}}
	if _, err := run(opts); err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceAndProfiles exercises the observability flags end-to-end:
// the Chrome trace must be a valid JSON document with a populated
// traceEvents array, and the profile files must be non-empty.
func TestRunTraceAndProfiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	opts := options{numCaches: 2, maxSize: 10, maxStates: 100_000, deadlock: true, builtin: "vi",
		workers: 2, obs: serve.Flags{Trace: tracePath, StatsSummary: true,
			CPUProfile: cpuPath, MemProfile: memPath}}
	code, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"engine.run", "engine.job", "synth.cegis", "smt.solve", "sat.search", "mc.bfs"} {
		if !names[want] {
			t.Errorf("trace lacks %q events", want)
		}
	}
	for _, p := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
}

func TestRunBuggyOriginExitCode(t *testing.T) {
	// origin-buggy must FAIL the model check: run reports exit code 2
	// with no error, so trace files still flush before exit.
	opts := options{numCaches: 2, maxSize: 10, maxStates: 500_000, builtin: "origin-buggy"}
	code, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunTRFile(t *testing.T) {
	src := `
protocol Mini;
enum K { Ping }
message M { Kind: K; From: PID }
message R { Kind: K; Dest: PID }
network Up ordered M to Server;
network Down ordered R to Client by Dest;
process Server {
    states { S } init S;
    transition (S, Up Msg) => (S, Down Out) {
        [] ==> { Out.Kind' = Ping; Out.Dest' = Msg.From; }
    }
}
process Client replicated {
    states { Idle, Wait } init Idle;
    triggers { Go }
    transition (Idle, Go) => (Wait, Up Out) {
        [] ==> { Out.Kind' = Ping; Out.From' = Self; }
    }
    transition (Wait, Down Msg) => (Idle);
}
`
	dir := t.TempDir()
	file := filepath.Join(dir, "mini.tr")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	murphiOut := filepath.Join(dir, "mini.m")
	opts := options{numCaches: 2, maxSize: 8, maxStates: 100_000, deadlock: true,
		murphiOut: murphiOut, args: []string{file}}
	if _, err := run(opts); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(murphiOut); err != nil || fi.Size() == 0 {
		t.Fatalf("murphi output missing: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	base := options{numCaches: 2, maxSize: 8, maxStates: 1000}
	bad := base
	bad.builtin = "nope"
	if _, err := run(bad); err == nil {
		t.Error("unknown builtin should error")
	}
	if _, err := run(base); err == nil {
		t.Error("no input should error")
	}
	missing := base
	missing.args = []string{"/does/not/exist.tr"}
	if _, err := run(missing); err == nil {
		t.Error("missing file should error")
	}
}

// TestRunUnknownBuiltin checks the CLI resolves -builtin through the one
// protocol table, whose error lists the known names.
func TestRunUnknownBuiltin(t *testing.T) {
	_, err := run(options{numCaches: 2, maxSize: 8, maxStates: 1000, builtin: "nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown builtin "nope"`) ||
		!strings.Contains(err.Error(), protocols.BuiltinNames) {
		t.Fatalf("run(-builtin nope) error = %v", err)
	}
}

// TestRunTimeoutDumpsFlight checks -timeout is a deadline on the
// synthesis context: the run fails with an error wrapping
// context.DeadlineExceeded and leaves a flight dump that opens with the
// flight header naming the deadline.
func TestRunTimeoutDumpsFlight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ndjson")
	_, err := run(options{numCaches: 3, maxSize: 12, maxStates: 100_000, builtin: "mesi",
		timeout: time.Millisecond, obs: serve.Flags{Flight: path}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run error = %v, want one wrapping context.DeadlineExceeded", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no flight dump: %v", err)
	}
	first, _, _ := strings.Cut(string(data), "\n")
	var header struct {
		Type   string `json:"type"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(first), &header); err != nil || header.Type != "flight" ||
		!strings.Contains(header.Reason, "deadline") {
		t.Fatalf("first line is not a flight header naming the deadline: %s (%v)", first, err)
	}
}

// TestRunCleanLeavesNoFlightDump checks -flight writes nothing when the
// run succeeds, and a model-check violation (exit code 2) is not a
// failure either.
func TestRunCleanLeavesNoFlightDump(t *testing.T) {
	for builtin, want := range map[string]int{"vi": 0, "origin-buggy": 2} {
		path := filepath.Join(t.TempDir(), "flight.ndjson")
		code, err := run(options{numCaches: 2, maxSize: 10, maxStates: 500_000, builtin: builtin,
			obs: serve.Flags{Flight: path}})
		if err != nil || code != want {
			t.Fatalf("%s: run = (%d, %v), want (%d, nil)", builtin, code, err, want)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: clean run left a flight dump (stat err %v)", builtin, err)
		}
	}
}
