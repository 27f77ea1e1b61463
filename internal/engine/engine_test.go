package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/synth"
)

// chainJobs builds a plan of three independent chains a0→a1→a2, b0→b1→b2,
// c0→c1→c2 whose jobs append their labels to a per-chain log.
func chainJobs(logs map[string]*[]string) [][]*Job {
	var chains [][]*Job
	for _, name := range []string{"a", "b", "c"} {
		var chain []*Job
		log := logs[name]
		for i := 0; i < 3; i++ {
			label := fmt.Sprintf("%s%d", name, i)
			chain = append(chain, &Job{Label: label, Kind: "test", Run: func(context.Context) error {
				*log = append(*log, label)
				return nil
			}})
		}
		chains = append(chains, chain)
	}
	return chains
}

func TestRunRespectsDepsAtEveryWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		logs := map[string]*[]string{"a": {}, "b": {}, "c": {}}
		stats, err := Run(context.Background(), workers, chainJobs(logs))
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
	// Chains of lengths 1, 2, 3, ... cut from the plan in order, the way
	// core plans a group's chain between single-job chains.
	var chains [][]*Job
	for i, n := 0, 1; i < len(jobs); i, n = i+n, n+1 {
		chains = append(chains, jobs[i:min(i+n, len(jobs))])
	}
	if _, err := Run(context.Background(), 1, chains); err != nil {
		t.Fatal(err)
	}
	for i, label := range order {
		if want := fmt.Sprintf("j%02d", i); label != want {
			t.Fatalf("position %d ran %s, want %s (sequential mode must follow plan order exactly: %v)",
				i, label, want, order)
		}
	}
}

func TestRunFailureSkipsDependentsAndReportsFirstError(t *testing.T) {
	boom := errors.New("boom")
	ran := make(map[string]bool)
	mk := func(label string, err error) *Job {
		return &Job{Label: label, Run: func(context.Context) error {
			ran[label] = true
			return err
		}}
	}
	a := mk("a", nil)
	b := mk("b", boom)
	c := mk("c", nil)
	d := mk("d", nil)
	stats, err := Run(context.Background(), 1, [][]*Job{{a, b, c, d}})
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
		_, err = Run(context.Background(), 2, [][]*Job{{blocked}, {failing}})
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
	}}
	_, err := Run(ctx, 1, [][]*Job{{first, second}})
	<-release
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(second.Err, ErrSkipped) {
		t.Fatalf("second.Err = %v, want ErrSkipped", second.Err)
	}
}

// TestRunOnEndedContextSkipsEveryJob checks the failed/skipped rule on
// a run whose context ended before it started: no job's Run returned an
// error, so none failed, and none started, so every one is skipped; the
// run's error wraps the context's.
func TestRunOnEndedContextSkipsEveryJob(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	<-ctx.Done()
	col := obs.NewCollect()
	ctx = obs.WithTracer(ctx, obs.NewTracer(col))
	logs := map[string]*[]string{"a": {}, "b": {}, "c": {}}
	stats, err := Run(ctx, 2, chainJobs(logs))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if stats.Jobs != 9 || stats.Failed != 0 || stats.Skipped != 9 {
		t.Fatalf("stats = %+v, want 9 jobs: 0 failed, 9 skipped", stats)
	}
	for chain, log := range logs {
		if len(*log) != 0 {
			t.Errorf("chain %s ran %v on an ended context", chain, *log)
		}
	}
	for _, d := range col.Spans() {
		if d.Name == "engine.job" {
			t.Errorf("engine.job span %v on an ended context", spanAttrs(d))
		}
		if a := spanAttrs(d); d.Name == "engine.run" && (a["failed"] != int64(0) || a["skipped"] != int64(9)) {
			t.Errorf("engine.run attrs = %v, want failed 0 and skipped 9", a)
		}
	}
}

// runSpans runs the chains on workers under a collecting tracer and
// returns the engine.run span and the engine.job spans it recorded.
func runSpans(t *testing.T, workers int, chains [][]*Job) (obs.SpanData, []obs.SpanData) {
	t.Helper()
	col := obs.NewCollect()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	if _, err := Run(ctx, workers, chains); err != nil {
		t.Fatal(err)
	}
	jobs := slices.Concat(chains...)
	var runs, jobSpans []obs.SpanData
	for _, d := range col.Spans() {
		switch d.Name {
		case "engine.run":
			runs = append(runs, d)
		case "engine.job":
			jobSpans = append(jobSpans, d)
		}
	}
	if len(runs) != 1 {
		t.Fatalf("%d engine.run spans, want 1", len(runs))
	}
	if len(jobSpans) != len(jobs) {
		t.Fatalf("%d engine.job spans, want %d", len(jobSpans), len(jobs))
	}
	return runs[0], jobSpans
}

func spanAttrs(d obs.SpanData) map[string]any {
	m := map[string]any{}
	for _, a := range d.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestRunTelemetryEvents checks the engine's telemetry: one engine.run
// span per Run, and one engine.job span per job, parented to it, inside
// its time bounds, and carrying the counters the job's Run recorded.
func TestRunTelemetryEvents(t *testing.T) {
	const workers = 2
	var jobs []*Job
	chains := make([][]*Job, 3)
	for i := 0; i < 9; i++ {
		j := &Job{Label: fmt.Sprintf("j%d", i), Kind: "test"}
		j.Run = func(ctx context.Context) error {
			obs.SpanFrom(ctx).SetAttr(obs.Bool("cache_hit", i%2 == 0), obs.Int64("candidates", int64(10*i)),
				obs.Int("smt_queries", i), obs.Int("cegis_iterations", i+1))
			return nil
		}
		chains[i%3] = append(chains[i%3], j)
		jobs = append(jobs, j)
	}
	run, jobSpans := runSpans(t, workers, chains)
	if a := spanAttrs(run); a["workers"] != int64(workers) || a["jobs"] != int64(len(jobs)) {
		t.Errorf("engine.run attrs = %v", a)
	}
	runEnd := run.Start.Add(run.Duration)
	seen := map[string]bool{}
	for _, d := range jobSpans {
		a := spanAttrs(d)
		label, _ := a["job"].(string)
		var i int
		if _, err := fmt.Sscanf(label, "j%d", &i); err != nil || seen[label] {
			t.Fatalf("unexpected or repeated job label %q", label)
		}
		seen[label] = true
		if d.Parent != run.ID {
			t.Errorf("%s: parent %d, want the engine.run span %d", label, d.Parent, run.ID)
		}
		if d.Start.Before(run.Start) || d.Start.Add(d.Duration).After(runEnd) {
			t.Errorf("%s: span not bracketed by engine.run", label)
		}
		if a["kind"] != "test" || a["candidates"] != int64(10*i) || a["smt_queries"] != int64(i) ||
			a["cegis_iterations"] != int64(i+1) || a["cache_hit"] != (i%2 == 0) {
			t.Errorf("%s: attrs = %v", label, a)
		}
	}
}

// TestRunStartMarks checks the marks that open the engine's spans: one
// engine.run.start on the run span with the plan's size, and one
// engine.job.start per job on its job span, on the job's track, naming
// the job, its kind and its run. A live view builds its list of running
// jobs from these alone.
func TestRunStartMarks(t *testing.T) {
	col := obs.NewCollect()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	logs := map[string]*[]string{"a": {}, "b": {}, "c": {}}
	chains := chainJobs(logs)
	jobs := slices.Concat(chains...)
	if _, err := Run(ctx, 2, chains); err != nil {
		t.Fatal(err)
	}
	spans := map[uint64]obs.SpanData{}
	var run obs.SpanData
	for _, d := range col.Spans() {
		spans[d.ID] = d
		if d.Name == "engine.run" {
			run = d
		}
	}
	runMarks, jobMarks := 0, 0
	for _, m := range col.Marks() {
		a := spanAttrs(m)
		switch m.Name {
		case "engine.run.start":
			runMarks++
			if m.Parent != run.ID || a["jobs"] != int64(len(jobs)) || a["workers"] != int64(2) {
				t.Errorf("engine.run.start = parent %d attrs %v, want parent %d jobs=%d workers=2",
					m.Parent, a, run.ID, len(jobs))
			}
		case "engine.job.start":
			jobMarks++
			job := spans[m.Parent]
			ja := spanAttrs(job)
			if job.Name != "engine.job" || m.Track != job.Track || a["job"] != ja["job"] ||
				a["kind"] != "test" || a["run"] != int64(run.ID) {
				t.Errorf("engine.job.start = track %d attrs %v on %s %v, want the job's own track, label and run %d",
					m.Track, a, job.Name, ja, run.ID)
			}
		}
	}
	if runMarks != 1 || jobMarks != len(jobs) {
		t.Errorf("%d run and %d job start marks, want 1 and %d", runMarks, jobMarks, len(jobs))
	}
}

// TestRunJobEventWorkersOneBased runs real jobs and asserts every
// engine.job span reports a worker in 1..N, on the track of that
// number, while the engine.run span carries no worker at all.
func TestRunJobEventWorkersOneBased(t *testing.T) {
	const workers = 2
	logs := map[string]*[]string{"a": {}, "b": {}, "c": {}}
	run, jobSpans := runSpans(t, workers, chainJobs(logs))
	if _, ok := spanAttrs(run)["worker"]; ok {
		t.Errorf("engine.run carries a worker: %v", spanAttrs(run))
	}
	for _, d := range jobSpans {
		a := spanAttrs(d)
		w, _ := a["worker"].(int64)
		if w < 1 || w > workers || d.Track != int(w) {
			t.Errorf("%v: worker %d on track %d, want the same value in 1..%d", a["job"], w, d.Track, workers)
		}
	}
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
	spec := maxSpec(expr.NewUniverse(3))
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)

	e1, st1, tier1, err := cache.Solve(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tier1 != TierMiss {
		t.Fatal("first solve must miss")
	}
	e2, st2, tier2, err := cache.Solve(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tier2 != TierMem {
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
	if hits, misses := reg.Get("engine.cache.mem_hits"), reg.Get("engine.cache.misses"); hits != 1 || misses != 1 {
		t.Errorf("engine.cache counters = %d mem hits / %d misses, want 1/1", hits, misses)
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
	r1, _, _, err := cache.Solve(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, tier, err := cache.Solve(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierMem {
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
	spec := maxSpec(expr.NewUniverse(3))
	results := make([]expr.Expr, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, _, err := cache.Solve(context.Background(), spec)
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

// TestSolveConcolicNoExpression checks that a solve whose limits are too
// small for any answer fails with ErrNoExpression, and that the failure
// is not cached: the same solve misses again.
func TestSolveConcolicNoExpression(t *testing.T) {
	// MaxSize 1 cannot express max(a, b).
	spec := maxSpec(expr.NewUniverse(3))
	spec.Limits = synth.Limits{MaxSize: 1}
	cache := NewCache()
	for i := 0; i < 2; i++ {
		_, _, tier, err := cache.Solve(context.Background(), spec)
		if !errors.Is(err, synth.ErrNoExpression) {
			t.Fatalf("solve %d: err = %v, want ErrNoExpression", i+1, err)
		}
		if tier != TierMiss {
			t.Fatalf("solve %d: tier %s, want a miss", i+1, tier)
		}
	}
}

func TestSolveConcolicCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var none *Cache
	if _, _, _, err := none.Solve(ctx, maxSpec(expr.NewUniverse(3))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
}

// TestEngineRunStress runs chains of every length from 1 to 12,
// repeatedly and at several worker counts, each job checking that its
// chain predecessor has finished; mainly a -race workout for the claim
// index and the chain hand-off.
func TestEngineRunStress(t *testing.T) {
	for _, workers := range []int{1, 3, 7} {
		for round := 0; round < 20; round++ {
			var total atomic.Int64
			var chains [][]*Job
			for n := 1; n <= 12; n++ {
				done := make([]bool, n)
				chain := make([]*Job, n)
				for i := range chain {
					chain[i] = &Job{Label: fmt.Sprintf("c%dj%d", n, i), Run: func(context.Context) error {
						if i > 0 && !done[i-1] {
							return fmt.Errorf("c%dj%d ran before its predecessor", n, i)
						}
						done[i] = true
						total.Add(1)
						return nil
					}}
				}
				chains = append(chains, chain)
			}
			stats, err := Run(context.Background(), workers, chains)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if total.Load() != 78 || stats.Jobs != 78 || stats.Failed != 0 || stats.Skipped != 0 {
				t.Fatalf("workers=%d: ran %d of 78, stats %+v", workers, total.Load(), stats)
			}
		}
	}
}

// TestUnrealizableFastFail checks that a hole the atlas proves
// impossible reaches the engine's caller as the typed ErrUnrealizable,
// with Stats.Unrealizable set.
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
	var none *Cache
	_, stats, _, err := none.Solve(context.Background(), spec)
	if !errors.Is(err, synth.ErrUnrealizable) {
		t.Fatalf("error = %v, want ErrUnrealizable", err)
	}
	if !stats.Unrealizable {
		t.Error("stats.Unrealizable not set")
	}
}
