package mc

import (
	"context"
	"errors"
	"testing"
)

func TestCheckCtxCancelled(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckCtx(ctx, r, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err == nil {
		t.Fatal("cancelled check must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result expected even on cancellation")
	}
	if res.Complete {
		t.Error("cancelled search must not claim completeness")
	}
}

func TestCheckCtxBackgroundMatchesCheck(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r1 := mustRuntime(t, sys)
	plain, err := CheckCtx(context.Background(), r1, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustRuntime(t, sys)
	ctxed, err := CheckCtx(context.Background(), r2, []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.States != ctxed.States || plain.Transitions != ctxed.Transitions || plain.OK != ctxed.OK {
		t.Errorf("Check and CheckCtx disagree: %+v vs %+v", plain, ctxed)
	}
}
