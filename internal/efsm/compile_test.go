package efsm

import (
	"math/rand"
	"testing"

	"transit/internal/expr"
)

// fuzzMax is a function symbol outside the Table 1 vocabulary, so the
// fuzz target also covers symbols compiled through their own Apply.
var fuzzMax = &expr.Func{Name: "fuzzmax", Params: []expr.Type{expr.IntType, expr.IntType}, Ret: expr.IntType,
	Apply: func(u *expr.Universe, a []expr.Value) expr.Value {
		if a[0].Int() > a[1].Int() {
			return a[0]
		}
		return a[1]
	}}

// FuzzCompiledEval holds the compiled evaluator to expr.Expr.Eval (DESIGN
// §5: evaluator and checker agree). Each input picks a universe, a result
// type and a size; the target draws a random expression of that type and
// size over variables of every type, compiles it against a slot layout,
// and compares the two evaluators on random bindings.
func FuzzCompiledEval(f *testing.F) {
	for _, s := range []struct {
		seed                      int64
		caches, width, kind, size uint8
	}{
		{1, 2, 6, 0, 5}, {2, 3, 0, 1, 7}, {3, 1, 30, 2, 3}, {4, 7, 14, 3, 9}, {5, 4, 2, 4, 6},
	} {
		f.Add(s.seed, s.caches, s.width, s.kind, s.size)
	}
	f.Fuzz(func(t *testing.T, seed int64, caches, width, kind, size uint8) {
		u, err := expr.NewUniverseWidth(1+int(caches%8), 2+uint(width%31))
		if err != nil {
			t.Fatal(err)
		}
		enum := u.MustDeclareEnum("FuzzEnum", "A", "B", "C")
		voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{Enums: []*expr.EnumType{enum},
			WithEnumConstants: true, WithPIDConstants: true, WithSetLiterals: true})
		voc.Add(fuzzMax)
		vars := []*expr.Var{
			expr.V("b", expr.BoolType), expr.V("i", expr.IntType), expr.V("j", expr.IntType),
			expr.V("p", expr.PIDType), expr.V("q", expr.PIDType),
			expr.V("s", expr.SetType), expr.V("r", expr.SetType), expr.V("e", expr.EnumOf(enum)),
		}
		types := []expr.Type{expr.BoolType, expr.IntType, expr.PIDType, expr.SetType, expr.EnumOf(enum)}
		rng := rand.New(rand.NewSource(seed))
		e, err := expr.RandomExpr(u, rng, voc, vars, types[int(kind)%len(types)], 1+int(size%10))
		if err != nil {
			return // no expression of that type and size
		}
		scope := make(map[string]scopeVar, len(vars))
		for i, v := range vars {
			scope[v.Name] = scopeVar{i, v.VT}
		}
		c, err := compileExpr(u, e, scope)
		if err != nil {
			t.Fatalf("compiling %s: %v", e, err)
		}
		s := make([]uint64, len(vars))
		for trial := 0; trial < 16; trial++ {
			env := expr.RandomEnv(u, rng, vars)
			for i, v := range vars {
				s[i] = payload(env[v.Name])
			}
			if got, want := valueOf(u, e.Type(), c.eval(s)), e.Eval(u, env); got != want {
				t.Fatalf("%s at %v: compiled %v, Eval %v", e, env, got, want)
			}
		}
	})
}
