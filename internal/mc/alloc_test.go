package mc_test

import (
	"context"
	"runtime"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// TestCheckSmallSystemAllocatesLittle checks the completed VI protocol at
// 2 caches and requires the check to allocate less than 256 KiB in all:
// a search of a few dozen states must not pay for a full key-arena page.
func TestCheckSmallSystemAllocatesLittle(t *testing.T) {
	spec := protocols.VI(2)
	if _, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
		t.Fatal(err)
	}
	r, err := efsm.NewRuntime(spec.Sys)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := mc.CheckCtx(context.Background(), r, spec.Invariants, mc.Options{})
	runtime.ReadMemStats(&after)
	if err != nil || !res.OK {
		t.Fatalf("check: %v, ok %v", err, res.OK)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 256<<10 {
		t.Errorf("checking %d states allocated %d bytes, want less than %d", res.States, alloc, 256<<10)
	}
	t.Logf("%d states, %d bytes", res.States, after.TotalAlloc-before.TotalAlloc)
}
