package export

import (
	"context"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/protocols"
	"transit/internal/synth"
)

func TestMurphiExportVI(t *testing.T) {
	spec := protocols.VI(3)
	if _, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 10}}); err != nil {
		t.Fatal(err)
	}
	src, err := Murphi(spec.Sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"const", "NCACHES: 3", "PidT: 0..NCACHES-1",
		"VIReqTypeT: enum { VIReqType_Get, VIReqType_Put }",
		"ReqNetMsgT: record", "procDir: DirStateT",
		"procCache: array [PidT] of CacheStateT",
		"startstate", "ruleset self: PidT do",
		"netReqNet.count", "SetSize", "endrule",
		"VIDirState_B", // busy state name
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Murphi output missing %q", want)
		}
	}
	// Every non-defer transition becomes a rule.
	rules := strings.Count(src, "rule \"")
	var nonDefer int
	for _, d := range spec.Sys.Defs {
		for _, tr := range d.Transitions {
			if !tr.Defer {
				nonDefer++
			}
		}
	}
	if rules != nonDefer {
		t.Errorf("rules = %d, non-defer transitions = %d", rules, nonDefer)
	}
}

func TestMurphiExportMSIWithMulticast(t *testing.T) {
	spec := protocols.MSI(2)
	if _, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
		t.Fatal(err)
	}
	src, err := Murphi(spec.Sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"for dst: PidT do",     // multicast expansion
		"SetMinus(", "SetAdd(", // set vocabulary in use
		"netCacheNet: array [PidT] of", // by-field routing
		"stall rule: modeled implicitly",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Murphi output missing %q", want)
		}
	}
}

func TestMurphiRejectsInvalidSystem(t *testing.T) {
	spec := protocols.VI(2) // no transitions completed, but still valid
	if _, err := Murphi(spec.Sys); err != nil {
		t.Fatalf("skeleton should export: %v", err)
	}
}
