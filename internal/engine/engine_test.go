package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transit/internal/expr"
	"transit/internal/synth"
)

// chainJobs builds a plan of three independent chains a0→a1→a2, b0→b1→b2,
// c0→c1→c2 whose jobs append their labels to a per-chain log.
func chainJobs(logs map[string]*[]string) []*Job {
	var jobs []*Job
	for _, chain := range []string{"a", "b", "c"} {
		var prev *Job
		log := logs[chain]
		for i := 0; i < 3; i++ {
			label := fmt.Sprintf("%s%d", chain, i)
			j := &Job{Label: label, Kind: "test", Run: func(context.Context) error {
				*log = append(*log, label)
				return nil
			}}
			if prev != nil {
				j.Deps = []*Job{prev}
			}
			jobs = append(jobs, j)
			prev = j
		}
	}
	return jobs
}

func TestRunRespectsDepsAtEveryWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		logs := map[string]*[]string{"a": {}, "b": {}, "c": {}}
		jobs := chainJobs(logs)
		stats, err := New(Config{Workers: workers}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Jobs != 9 || stats.Failed != 0 || stats.Skipped != 0 {
			t.Fatalf("workers=%d: stats = %+v", workers, stats)
		}
		for chain, log := range logs {
			want := []string{chain + "0", chain + "1", chain + "2"}
			if fmt.Sprint(*log) != fmt.Sprint(want) {
				t.Errorf("workers=%d chain %s ran as %v, want %v", workers, chain, *log, want)
			}
		}
	}
}

func TestRunWorkersOneIsPlanOrder(t *testing.T) {
	var order []string
	var jobs []*Job
	for i := 0; i < 20; i++ {
		label := fmt.Sprintf("j%02d", i)
		jobs = append(jobs, &Job{Label: label, Run: func(context.Context) error {
			order = append(order, label)
			return nil
		}})
	}
	// Reverse-ish dep structure: even jobs depend on the previous even job.
	for i := 2; i < 20; i += 2 {
		jobs[i].Deps = []*Job{jobs[i-2]}
	}
	if _, err := New(Config{Workers: 1}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, label := range order {
		if want := fmt.Sprintf("j%02d", i); label != want {
			t.Fatalf("position %d ran %s, want %s (sequential mode must follow plan order exactly: %v)",
				i, label, want, order)
		}
	}
}

func TestRunRejectsForwardDeps(t *testing.T) {
	a := &Job{Label: "a", Run: func(context.Context) error { return nil }}
	b := &Job{Label: "b", Run: func(context.Context) error { return nil }}
	a.Deps = []*Job{b} // forward reference: b is planned after a
	if _, err := New(Config{}).Run(context.Background(), []*Job{a, b}); err == nil {
		t.Fatal("forward dependency must be rejected")
	}
}

func TestRunFailureSkipsDependentsAndReportsFirstError(t *testing.T) {
	boom := errors.New("boom")
	ran := make(map[string]bool)
	mk := func(label string, err error, deps ...*Job) *Job {
		return &Job{Label: label, Deps: deps, Run: func(context.Context) error {
			ran[label] = true
			return err
		}}
	}
	a := mk("a", nil)
	b := mk("b", boom, a)
	c := mk("c", nil, b)
	d := mk("d", nil, c)
	stats, err := New(Config{Workers: 1}).Run(context.Background(), []*Job{a, b, c, d})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom (skip markers must not mask the root cause)", err)
	}
	if ran["c"] || ran["d"] {
		t.Error("dependents of a failed job must not run")
	}
	if !errors.Is(c.Err, ErrSkipped) || !errors.Is(d.Err, ErrSkipped) {
		t.Errorf("c.Err = %v, d.Err = %v, want ErrSkipped", c.Err, d.Err)
	}
	if stats.Failed != 1 || stats.Skipped != 2 {
		t.Errorf("stats = %+v, want 1 failed, 2 skipped", stats)
	}
}

func TestRunCancellationStopsInFlightJobs(t *testing.T) {
	// One job blocks until cancelled; a sibling fails and triggers the
	// fail-fast cancel. The blocked job must be released by the engine's
	// context, not hang.
	started := make(chan struct{})
	blocked := &Job{Label: "blocked", Run: func(ctx context.Context) error {
		close(started)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return errors.New("cancellation never arrived")
		}
	}}
	boom := errors.New("boom")
	failing := &Job{Label: "failing", Run: func(ctx context.Context) error {
		<-started // guarantee overlap with the blocked job
		return boom
	}}
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = New(Config{Workers: 2}).Run(context.Background(), []*Job{blocked, failing})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: cancellation failed to reach the in-flight job")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !errors.Is(blocked.Err, context.Canceled) {
		t.Fatalf("blocked job saw %v, want context.Canceled", blocked.Err)
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	first := &Job{Label: "first", Run: func(ctx context.Context) error {
		cancel()
		close(release)
		<-ctx.Done()
		return ctx.Err()
	}}
	second := &Job{Label: "second", Run: func(context.Context) error {
		return errors.New("must not run")
	}, Deps: []*Job{first}}
	_, err := New(Config{Workers: 1}).Run(ctx, []*Job{first, second})
	<-release
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(second.Err, ErrSkipped) {
		t.Fatalf("second.Err = %v, want ErrSkipped", second.Err)
	}
}

func TestRunJobTimeout(t *testing.T) {
	slow := &Job{Label: "slow", Run: func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return nil
		}
	}}
	_, err := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond}).
		Run(context.Background(), []*Job{slow})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRunTelemetryEvents(t *testing.T) {
	var events []Event
	logs := map[string]*[]string{"a": {}, "b": {}, "c": {}}
	jobs := chainJobs(logs)
	_, err := New(Config{Workers: 2, Sink: CollectSink(&events)}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
	}
	if counts["engine_start"] != 1 || counts["engine_end"] != 1 {
		t.Errorf("engine events = %v", counts)
	}
	if counts["job_start"] != len(jobs) || counts["job_end"] != len(jobs) {
		t.Errorf("job events = %v, want %d of each", counts, len(jobs))
	}
	if events[0].Type != "engine_start" || events[len(events)-1].Type != "engine_end" {
		t.Errorf("events not bracketed: first %s, last %s", events[0].Type, events[len(events)-1].Type)
	}
}

func TestJSONSinkConcurrent(t *testing.T) {
	var sb lockedBuilder
	sink := NewJSONSink(&sb)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink(Event{Type: "job_end", Job: fmt.Sprintf("w%d-%d", w, i), Worker: w})
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"type":"job_end"`) {
			t.Fatalf("interleaved line: %q", ln)
		}
	}
}

type lockedBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.String()
}

// maxSpec is the paper's max(a, b) inference problem, the cheapest
// non-trivial SolveConcolic instance.
func maxSpec(u *expr.Universe) SolveSpec {
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	return SolveSpec{
		Problem: synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o},
		Examples: []synth.ConcolicExample{{
			Pre: expr.True(),
			Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
				expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
		}},
		Limits: synth.Limits{MaxSize: 8},
	}
}

func TestSolveConcolicCacheReturnsIdenticalExpression(t *testing.T) {
	cache := NewCache()
	eng := New(Config{Cache: cache})
	spec := maxSpec(expr.NewUniverse(3))

	e1, st1, out1, err := eng.SolveConcolic(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Cached || out1.Tier != TierMiss {
		t.Fatal("first solve must miss")
	}
	e2, st2, out2, err := eng.SolveConcolic(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Cached || out2.Tier != TierMem {
		t.Fatal("second solve must hit in memory")
	}
	if !expr.Equal(e1, e2) {
		t.Fatalf("cache changed the answer: %s vs %s", e1, e2)
	}
	// Replayed stats keep aggregate reports cache-invariant.
	if st1.SMTQueries != st2.SMTQueries || st1.Iterations != st2.Iterations ||
		st1.Concrete.Enumerated != st2.Concrete.Enumerated {
		t.Errorf("replayed stats differ: %+v vs %+v", st1, st2)
	}
	if hits, misses := cache.Counters(); hits != 1 || misses != 1 {
		t.Errorf("counters = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCacheHitsRehydrateAcrossUniverses(t *testing.T) {
	// Same structural problem built against two distinct Universe
	// instances (fresh enum/vocabulary pointers): the keys collide by
	// design, and the replayed expression must be re-bound to the second
	// universe's symbols, not leak the first's.
	u1 := expr.NewUniverse(3)
	e1t := u1.MustDeclareEnum("Kind", "Red", "Blue")
	u2 := expr.NewUniverse(3)
	e2t := u2.MustDeclareEnum("Kind", "Red", "Blue")

	mk := func(u *expr.Universe, et *expr.EnumType) SolveSpec {
		voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
			Enums: []*expr.EnumType{et}, WithEnumConstants: true, WithoutEnumIte: true,
		})
		k := expr.V("k", expr.EnumOf(et))
		o := expr.V("o", expr.BoolType)
		return SolveSpec{
			Problem: synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{k}, Output: o},
			Examples: []synth.ConcolicExample{{
				Pre:  expr.True(),
				Post: expr.Eq(o, expr.Eq(k, expr.EnumC(et, "Red"))),
			}},
			Limits: synth.Limits{MaxSize: 6},
		}
	}
	s1, s2 := mk(u1, e1t), mk(u2, e2t)
	if s1.Key() != s2.Key() {
		t.Fatal("structurally identical specs must share a key")
	}

	cache := NewCache()
	eng := New(Config{Cache: cache})
	r1, _, _, err := eng.SolveConcolic(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, out, err := eng.SolveConcolic(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatal("second universe must hit the first's entry")
	}
	if r1.String() != r2.String() {
		t.Fatalf("answers differ: %s vs %s", r1, r2)
	}
	// The rehydrated expression must reference u2's enum type wherever the
	// original referenced u1's, so downstream identity type checks pass.
	var checkTypes func(e expr.Expr)
	checkTypes = func(e expr.Expr) {
		if ty := e.Type(); ty.Kind == expr.KindEnum && ty.Enum != e2t {
			t.Fatalf("node %s carries enum type %p, want u2's %p", e, ty.Enum, e2t)
		}
		if ap, ok := e.(*expr.Apply); ok {
			for _, a := range ap.Args {
				checkTypes(a)
			}
		}
	}
	checkTypes(r2)
	// And it must evaluate in u2.
	env := expr.Env{"k": expr.EnumValOf(e2t, "Blue")}
	if got := r2.Eval(u2, env); got.Bool() {
		t.Errorf("rehydrated expr misevaluates: Blue classified as Red")
	}
}

func TestSolveConcolicConcurrentSharedCache(t *testing.T) {
	cache := NewCache()
	eng := New(Config{Cache: cache})
	spec := maxSpec(expr.NewUniverse(3))
	results := make([]expr.Expr, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, _, err := eng.SolveConcolic(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] == nil || !expr.Equal(results[0], results[i]) {
			t.Fatalf("racing solvers disagree: %v vs %v", results[0], results[i])
		}
	}
}

func TestSolveConcolicRetryGrowsLimits(t *testing.T) {
	// MaxSize 1 cannot express max(a, b); one growth step (+4) can.
	spec := maxSpec(expr.NewUniverse(3))
	spec.Limits = synth.Limits{MaxSize: 1}

	eng := New(Config{})
	_, _, _, err := eng.SolveConcolic(context.Background(), spec)
	if !errors.Is(err, synth.ErrNoExpression) {
		t.Fatalf("without retries: err = %v, want ErrNoExpression", err)
	}

	eng = New(Config{Retry: RetryPolicy{Attempts: 3}})
	e, _, out, err := eng.SolveConcolic(context.Background(), spec)
	if err != nil {
		t.Fatalf("with retries: %v", err)
	}
	if out.Cached || out.Retries == 0 {
		t.Fatalf("expected a retried uncached solve, got cached=%v retries=%d", out.Cached, out.Retries)
	}
	if e == nil {
		t.Fatal("no expression")
	}
}

func TestSolveConcolicCancelledBeforeRetry(t *testing.T) {
	spec := maxSpec(expr.NewUniverse(3))
	spec.Limits = synth.Limits{MaxSize: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, out, err := New(Config{Retry: RetryPolicy{Attempts: 5}}).SolveConcolic(ctx, spec)
	if err == nil {
		t.Fatal("cancelled solve must fail")
	}
	if out.Retries != 0 {
		t.Fatalf("cancelled solve must not retry, spent %d retries", out.Retries)
	}
}

func TestGrowLimitsMonotone(t *testing.T) {
	l := synth.Limits{}.WithDefaults()
	g := growLimits(synth.Limits{})
	if g.MaxSize <= l.MaxSize || g.MaxExprs <= l.MaxExprs || g.MaxIters <= l.MaxIters {
		t.Errorf("growLimits did not grow: %+v -> %+v", l, g)
	}
}

func TestEngineRunStress(t *testing.T) {
	// A wide random-free DAG executed repeatedly at several worker counts;
	// mainly a -race workout for the scheduler's locking.
	for _, workers := range []int{1, 3, 7} {
		var total atomic.Int64
		var jobs []*Job
		var prevLayer []*Job
		for layer := 0; layer < 5; layer++ {
			var cur []*Job
			for i := 0; i < 10; i++ {
				j := &Job{Label: fmt.Sprintf("l%dj%d", layer, i), Deps: prevLayer,
					Run: func(context.Context) error { total.Add(1); return nil }}
				cur = append(cur, j)
				jobs = append(jobs, j)
			}
			prevLayer = cur
		}
		stats, err := New(Config{Workers: workers}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if total.Load() != 50 || stats.Jobs != 50 {
			t.Fatalf("workers=%d: ran %d of 50", workers, total.Load())
		}
	}
}

// TestUnrealizableFastFail pins the interaction between the retry
// schedule and unrealizability detection: a hole the atlas proves
// impossible fails in one attempt — no escalating-limits retries — and
// the error reaches the caller as ErrUnrealizable.
func TestUnrealizableFastFail(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	spec := SolveSpec{
		Problem: synth.Problem{U: u, Vocab: expr.NewVocabulary(), Vars: []*expr.Var{a, b}, Output: o},
		Examples: []synth.ConcolicExample{{
			Pre: expr.True(),
			Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
				expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
		}},
		Limits: synth.Limits{MaxSize: 4},
	}
	eng := New(Config{Retry: RetryPolicy{Attempts: 3}})
	_, stats, out, err := eng.SolveConcolic(context.Background(), spec)
	if !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("error = %v, want ErrUnrealizable", err)
	}
	if out.Retries != 0 {
		t.Errorf("spent %d retries on a proven-unrealizable hole", out.Retries)
	}
	if !stats.Unrealizable {
		t.Error("stats.Unrealizable not set")
	}
}
