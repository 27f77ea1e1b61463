package engine

import (
	"context"
	"testing"
	"time"

	"transit/internal/expr"
	"transit/internal/synth"
)

// goldenSpec is a fixed, fully explicit solve spec covering every key
// ingredient: universe parameters (cache count, non-default width, a
// declared enum), vocabulary options, variables, output, a concolic
// example, and explicit limits.
func goldenSpec(t *testing.T) SolveSpec {
	t.Helper()
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := u.MustDeclareEnum("State", "INVALID", "SHARED", "MODIFIED")
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums: []*expr.EnumType{st}, WithEnumConstants: true, WithoutEnumIte: true,
	})
	a := expr.V("a", expr.IntType)
	b := expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	return SolveSpec{
		Problem: synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o},
		Examples: []synth.ConcolicExample{{
			Pre: expr.True(),
			Post: expr.And(expr.Ge(o, a), expr.And(expr.Ge(o, b),
				expr.Or(expr.Eq(o, a), expr.Eq(o, b)))),
		}},
		Limits: synth.Limits{MaxSize: 8},
	}
}

// TestSolveSpecKeyGolden pins the canonical cache key for the golden
// spec. With the disk-backed cache, SolveSpec.Key is a persistence and
// compatibility surface: entries written by one build are looked up by
// later builds, so any change to the key derivation silently orphans
// every existing cache (and, worse, an unintended collision could serve
// wrong expressions). If this test fails, either revert the accidental
// key drift, or — for a deliberate format change — update the golden
// value AND bump the codec wireVersion so stale disk entries are
// rejected rather than misread.
func TestSolveSpecKeyGolden(t *testing.T) {
	const golden = "1223ea59f358773bb923c836a819a76f89f29401a697a5e3bf7917fb2cab7ffc"
	if got := goldenSpec(t).Key(); got != golden {
		t.Fatalf("SolveSpec.Key drifted:\n got  %s\n want %s", got, golden)
	}
}

// TestSolveSpecKeyStableAcrossInstances rebuilds the same spec from
// scratch and demands the same key — the property cross-process cache
// sharing rests on.
func TestSolveSpecKeyStableAcrossInstances(t *testing.T) {
	if a, b := goldenSpec(t).Key(), goldenSpec(t).Key(); a != b {
		t.Fatalf("key not a pure function of the spec: %s vs %s", a, b)
	}
}

// TestSolveSpecKeySeparatesBankFlags replays the first bank-divergence
// input of ROADMAP item 2 (pointwise max on a=1 b=32, a=1 b=14, a=14
// b=9, taken modulo the 4-bit Int domain), where the default search
// and the restart-per-round search (NoBankReuse) return different
// consistent expressions. One shared cache serves both calls, so the
// flag must be part of the key: the second call has to solve afresh and
// return the restart-per-round answer.
func TestSolveSpecKeySeparatesBankFlags(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	dom := int64(u.DomainSize(expr.IntType))
	c := func(v int64) expr.Expr { return expr.NewConst(expr.IntVal(u, v%dom)) }
	var exs []synth.ConcolicExample
	for _, p := range [][2]int64{{1, 32}, {1, 14}, {14, 9}} {
		exs = append(exs, synth.ConcolicExample{
			Pre:  expr.And(expr.Eq(a, c(p[0])), expr.Eq(b, c(p[1]))),
			Post: expr.Eq(o, c(max(p[0]%dom, p[1]%dom))),
		})
	}
	spec := SolveSpec{
		Problem:  synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o},
		Examples: exs,
		Limits:   synth.Limits{MaxSize: 7, Timeout: time.Minute},
	}
	restart := spec
	restart.Limits.NoBankReuse = true

	ctx := context.Background()
	want, _, err := synth.SolveConcolicCtx(ctx, restart.Problem, restart.Examples, restart.Limits)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	def, _, _, err := cache.Solve(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, tier, err := cache.Solve(ctx, restart)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierMiss {
		t.Fatalf("restart-per-round solve answered from the default solve's entry (%s)", def)
	}
	if !expr.Equal(got, want) {
		t.Fatalf("restart-per-round solve through the cache = %s, want %s", got, want)
	}
	if expr.Equal(got, def) {
		t.Fatalf("both searches return %s; the input no longer tells the keys apart", got)
	}
}
