package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"transit/internal/obs"
)

// runCommand runs body under a command lifecycle with -flight set to
// path, deferring Close the way the commands do, and returns the
// command's error.
func runCommand(t *testing.T, path string, body func() error) (err error) {
	cmd, ctx, err := Open("test", Flags{Flight: path})
	if err != nil {
		t.Fatal(err)
	}
	defer cmd.Close(&err)
	_, sp := obs.Start(ctx, "work")
	sp.End()
	return body()
}

// flightReason reads the dump at path and returns its header's reason.
func flightReason(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no flight dump: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty flight dump")
	}
	var header struct {
		Type   string `json:"type"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Type != "flight" {
		t.Fatalf("first line is not a flight header: %s (%v)", sc.Bytes(), err)
	}
	return header.Reason
}

// TestCommandErrorDumps checks a command that fails leaves a dump whose
// reason is its error, and still returns that error.
func TestCommandErrorDumps(t *testing.T) {
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "flight.ndjson")
	err := runCommand(t, path, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := flightReason(t, path); got != "boom" {
		t.Errorf("dump reason = %q, want %q", got, "boom")
	}
}

// TestCommandPanicDumps checks a command that panics leaves a dump naming
// the panic, and that Close re-raises it.
func TestCommandPanicDumps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ndjson")
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the command's panic re-raised", r)
			}
		}()
		runCommand(t, path, func() error { panic("boom") })
	}()
	if got := flightReason(t, path); got != "panic: boom" {
		t.Errorf("dump reason = %q, want %q", got, "panic: boom")
	}
}

// TestCommandCleanRunLeavesNoDump checks a command that succeeds leaves
// no flight dump.
func TestCommandCleanRunLeavesNoDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ndjson")
	if err := runCommand(t, path, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("clean run left %s (stat err %v)", path, err)
	}
}
