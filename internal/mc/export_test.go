package mc

import (
	"fmt"
	"testing"

	"transit/internal/efsm"
)

// GoldenFixture is one in-package system the external golden test pins.
type GoldenFixture struct {
	Name string
	R    *efsm.Runtime
	Invs []Invariant
	Opts Options
}

// GoldenFixtures returns the token protocol's clean run and its four bug
// variants, and the grant protocol at 3 and 4 caches, each with the
// options its parity tests use. Symmetry is left for the caller to set.
func GoldenFixtures(t *testing.T) []GoldenFixture {
	t.Helper()
	var out []GoldenFixture
	for _, f := range []struct {
		name     string
		o        tokenOpts
		deadlock bool
	}{
		{"token/safe", tokenOpts{}, false},
		{"token/mutex-violation", tokenOpts{grantWhileBusy: true}, false},
		{"token/unexpected-message", tokenOpts{dropRelease: true}, false},
		{"token/nondeterministic-guards", tokenOpts{overlapGuards: true}, false},
		{"token/deadlock", tokenOpts{noDone: true}, true},
	} {
		sys, client, _ := tokenSystem(t, f.o)
		out = append(out, GoldenFixture{Name: f.name, R: mustRuntime(t, sys),
			Invs: []Invariant{AtMostOne(client, "Holding")}, Opts: Options{CheckDeadlock: f.deadlock}})
	}
	for _, n := range []int{3, 4} {
		sys, client := grantSystem(t, n, 0)
		out = append(out, GoldenFixture{Name: fmt.Sprintf("grant/n=%d", n), R: mustRuntime(t, sys),
			Invs: []Invariant{AtMostOne(client, "Holding")}})
	}
	return out
}
