package mc

import (
	"context"
	"errors"
	"testing"
	"time"

	"transit/internal/obs"
)

// TestCheckTiming covers the Result timing fields: any real BFS takes
// measurable time and reports a positive exploration rate.
func TestCheckTiming(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	res, err := CheckCtx(context.Background(), mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %s, want > 0", res.Elapsed)
	}
	if res.StatesPerSec <= 0 {
		t.Errorf("StatesPerSec = %f, want > 0", res.StatesPerSec)
	}
}

// spanAttrs maps a span's attributes by key.
func spanAttrs(d obs.SpanData) map[string]any {
	attrs := map[string]any{}
	for _, a := range d.Attrs {
		attrs[a.Key] = a.Value
	}
	return attrs
}

// TestCheckCtxSpan asserts the checker emits an mc.bfs span carrying the
// exploration counters as attributes, and that the mc.* counters add up
// to the Results and the spans: two runs on one registry, the second
// stopped by MaxStates, and a symmetry-reduced run whose mc.orbit_states
// / mc.states is its reduction factor.
func TestCheckCtxSpan(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	col := obs.NewCollect()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	reg := obs.NewRegistry()
	ctx = obs.WithMetrics(ctx, reg)

	res, err := CheckCtx(ctx, mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	if len(spans) != 1 || spans[0].Name != "mc.bfs" {
		t.Fatalf("spans = %+v, want one mc.bfs", spans)
	}
	attrs := spanAttrs(spans[0])
	if attrs["states"] != int64(res.States) {
		t.Errorf("states attr = %v, want %d", attrs["states"], res.States)
	}
	if attrs["ok"] != true || attrs["complete"] != true {
		t.Errorf("ok/complete attrs = %v/%v", attrs["ok"], attrs["complete"])
	}
	if got := reg.Get("mc.states"); got != int64(res.States) {
		t.Errorf("mc.states counter = %d, want %d", got, res.States)
	}
	if got := reg.Get("mc.runs"); got != 1 {
		t.Errorf("mc.runs counter = %d, want 1", got)
	}

	// A second run on the same registry, stopped by the state budget.
	cut, err := CheckCtx(ctx, mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{MaxStates: 5})
	if !errors.Is(err, ErrStateBudget) {
		t.Fatalf("budget run: err = %v, want ErrStateBudget", err)
	}
	spans = col.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want two mc.bfs", spans)
	}
	var spanStates, spanTransitions int64
	for _, sp := range spans {
		a := spanAttrs(sp)
		spanStates += a["states"].(int64)
		spanTransitions += a["transitions"].(int64)
	}
	states, transitions := int64(res.States+cut.States), int64(res.Transitions+cut.Transitions)
	if spanStates != states || spanTransitions != transitions {
		t.Errorf("span states/transitions = %d/%d, Results sum to %d/%d",
			spanStates, spanTransitions, states, transitions)
	}
	for name, want := range map[string]int64{
		"mc.runs":        2,
		"mc.states":      states,
		"mc.transitions": transitions,
		// Without reduction every state stands for an orbit of one.
		"mc.orbit_states": states,
	} {
		if got := reg.Get(name); got != want {
			t.Errorf("%s = %d after two runs, want %d", name, got, want)
		}
	}

	// A symmetry-reduced run on its own registry, slow enough for the
	// heartbeat to publish running totals before the final ones.
	gsys, gclient := grantSystem(t, 3, 0)
	rcol, rreg := obs.NewCollect(), obs.NewRegistry()
	rctx := obs.WithMetrics(obs.WithTracer(context.Background(), obs.NewTracer(rcol)), rreg)
	red, err := CheckCtx(rctx, mustRuntime(t, gsys),
		[]Invariant{AtMostOne(gclient, "Holding"), slowCheck(100 * time.Microsecond)},
		Options{SymmetryReduction: true, ProgressInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !red.SymmetryApplied || red.ReductionFactor <= 1 {
		t.Fatalf("reduced run: applied=%v factor=%v", red.SymmetryApplied, red.ReductionFactor)
	}
	attrs = spanAttrs(rcol.Spans()[0])
	if got := rreg.Get("mc.states"); got != int64(red.States) || attrs["states"] != got {
		t.Errorf("mc.states = %d, span states = %v, Result %d", got, attrs["states"], red.States)
	}
	if got := rreg.Get("mc.transitions"); got != int64(red.Transitions) || attrs["transitions"] != got {
		t.Errorf("mc.transitions = %d, span transitions = %v, Result %d", got, attrs["transitions"], red.Transitions)
	}
	factor := float64(rreg.Get("mc.orbit_states")) / float64(rreg.Get("mc.states"))
	if factor != red.ReductionFactor || attrs["reduction_factor"] != factor {
		t.Errorf("mc.orbit_states / mc.states = %v, span reduction_factor = %v, Result %v",
			factor, attrs["reduction_factor"], red.ReductionFactor)
	}
}
