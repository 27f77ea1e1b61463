package smt

import (
	"context"
	"math/rand"
	"testing"

	"transit/internal/expr"
)

// FuzzSolveVsBrute is the oracle for the canonical-model contract: on a
// random typed Boolean formula over 1-4 caches and 2-4-bit Ints, Solve
// must return SolveBrute's status and, when satisfiable, exactly its
// model — the first assignment the brute-force odometer visits.
func FuzzSolveVsBrute(f *testing.F) {
	for _, s := range []struct {
		seed                int64
		caches, width, size uint8
	}{
		{1, 2, 2, 5}, {2, 3, 0, 7}, {3, 0, 1, 3}, {4, 1, 2, 11}, {5, 2, 1, 9},
	} {
		f.Add(s.seed, s.caches, s.width, s.size)
	}
	f.Fuzz(func(t *testing.T, seed int64, caches, width, size uint8) {
		u, err := expr.NewUniverseWidth(1+int(caches%4), 2+uint(width%3))
		if err != nil {
			t.Fatal(err)
		}
		enum := u.MustDeclareEnum("FuzzEnum", "A", "B", "C")
		voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{Enums: []*expr.EnumType{enum},
			WithEnumConstants: true, WithPIDConstants: true})
		vars := []*expr.Var{
			expr.V("b", expr.BoolType), expr.V("i", expr.IntType), expr.V("j", expr.IntType),
			expr.V("p", expr.PIDType), expr.V("s", expr.SetType), expr.V("e", expr.EnumOf(enum)),
		}
		rng := rand.New(rand.NewSource(seed))
		formula, err := expr.RandomExpr(u, rng, voc, vars, expr.BoolType, 1+int(size%12))
		if err != nil {
			return // no Boolean expression of that size
		}
		got, _, err := SolveCtx(context.Background(), u, vars, formula, Options{})
		if err != nil {
			t.Fatalf("%s: %v", formula, err)
		}
		want, err := SolveBrute(u, vars, formula, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("%s: status %v, brute force %v", formula, got.Status, want.Status)
		}
		if got.Status != Sat {
			return
		}
		if len(got.Model) != len(want.Model) {
			t.Fatalf("%s: model %v, brute force %v", formula, got.Model, want.Model)
		}
		for k, v := range want.Model {
			if got.Model[k] != v {
				t.Fatalf("%s: model %v, brute force %v", formula, got.Model, want.Model)
			}
		}
	})
}
