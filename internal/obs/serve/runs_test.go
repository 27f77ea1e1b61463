package serve

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"transit/internal/engine"
)

// TestRunsFromEngineSpans drives a real engine run through a session
// whose exporters feed the server, and reads /runs while one job blocks:
// the run shows its planned, done and failed jobs and the blocked job its
// label, kind and track, all folded from the engine's start marks and
// span closes. After the run, /runs lists no engine runs.
func TestRunsFromEngineSpans(t *testing.T) {
	srv, _, ctx := startServer(t)
	started, release := make(chan struct{}), make(chan struct{})
	block := &engine.Job{Label: "probe block", Kind: "probe", Run: func(context.Context) error {
		close(started)
		<-release
		return nil
	}}
	fail := &engine.Job{Label: "probe fail", Kind: "probe", Run: func(context.Context) error {
		<-started
		return errors.New("probe failure")
	}}
	done := make(chan error, 1)
	go func() {
		_, err := engine.Run(ctx, 2, [][]*engine.Job{{block}, {fail}})
		done <- err
	}()

	runs := func() []RunLive {
		_, body := get(t, srv, "/runs")
		var v RunsSnapshot
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("/runs not JSON: %v\n%s", err, body)
		}
		return v.Engine
	}
	var v []RunLive
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		v = runs()
		if len(v) == 1 && v[0].Done == 1 || time.Now().After(deadline) {
			break
		}
	}
	if len(v) != 1 || v[0].Jobs != 2 || v[0].Workers != 2 || v[0].Done != 1 || v[0].Failed != 1 {
		t.Fatalf("/runs engine = %+v, want one run: jobs=2 workers=2 done=1 failed=1", v)
	}
	if a := v[0].Active; len(a) != 1 || a[0].Job != "probe block" || a[0].Kind != "probe" ||
		a[0].Track < 1 || a[0].Track > 2 {
		t.Fatalf("/runs active jobs = %+v, want the blocked probe on track 1 or 2", a)
	}

	close(release)
	if err := <-done; err == nil {
		t.Fatal("run with a failing job returned nil")
	}
	if v := runs(); v == nil || len(v) != 0 {
		t.Fatalf("/runs engine after the run = %+v, want []", v)
	}
}
