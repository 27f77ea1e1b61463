package engine_test

// External test package: the digest test completes the built-in
// protocols, and internal/protocols imports core, which imports engine.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/engine"
	"transit/internal/engine/diskcache"
	"transit/internal/expr"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// constantsSpec is a solve spec whose examples hold a constant of every
// kind (Bool, a negative Int, a PID, a Set whose members sort differently
// as text than as numbers, an enum value) beside nested and zero-arity
// applications, over a universe of 12 caches with a declared enum.
func constantsSpec(t *testing.T) engine.SolveSpec {
	t.Helper()
	u, err := expr.NewUniverseWidth(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	mt := u.MustDeclareEnum("MType", "READ", "WRITE", "INV")
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums: []*expr.EnumType{mt}, WithEnumConstants: true, WithSetLiterals: true,
	})
	n := expr.V("n", expr.IntType)
	p := expr.V("p", expr.PIDType)
	s := expr.V("s", expr.SetType)
	m := expr.V("m", expr.EnumOf(mt))
	o := expr.V("o", expr.SetType)
	return engine.SolveSpec{
		Problem: synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{n, p, s, m}, Output: o},
		Examples: []synth.ConcolicExample{
			{
				Pre: expr.And(expr.Eq(n, expr.IntC(u, -7)), expr.Eq(p, expr.NewConst(expr.PIDVal(10))),
					expr.Eq(s, expr.SetC(2, 10, 11)), expr.Eq(m, expr.NewConst(expr.EnumValOf(mt, "INV")))),
				Post: expr.Eq(o, expr.SetAdd(s, p)),
			},
			{
				Pre: expr.And(expr.BoolC(true), expr.Eq(m, expr.EnumC(mt, "READ")),
					expr.Ge(expr.Card(s), expr.Dec(expr.NumCaches()))),
				Post: expr.Eq(o, expr.SetUnion(expr.EmptySet(), expr.Singleton(expr.PIDC(3)))),
			},
			{Pre: expr.False(), Post: expr.Eq(o, expr.SetC())},
		},
		Limits: synth.Limits{MaxSize: 9, NoPrune: true},
	}
}

// TestSolveSpecKeyConstants pins the key of constantsSpec, so every kind
// of constant and application keeps the text it is keyed by, and with it
// every disk-cache entry written before.
func TestSolveSpecKeyConstants(t *testing.T) {
	const want = "c03c018cf79df7b07d3dfe722d2dbfc225678555eea439e013691beaf004ea94"
	if got := constantsSpec(t).Key(); got != want {
		t.Fatalf("SolveSpec.Key drifted:\n got  %s\n want %s", got, want)
	}
}

// TestSolveSpecKeyBuiltinDigest pins the keys of every hole that
// completing the five built-in protocols at 3 caches stores, through one
// disk store whose entry files are named by their keys: a digest over the
// sorted names, and their count.
func TestSolveSpecKeyBuiltinDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("completes five protocols")
	}
	const (
		wantKeys   = 229
		wantDigest = "6533269564a551103027cd755ed3b55390580c0111c38a26e2b957d76cd94985"
	)
	dir := t.TempDir()
	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cache := engine.NewCacheWithBackend(store)
	for _, spec := range []*protocols.Spec{
		protocols.VI(3), protocols.MSI(3), protocols.MESI(3),
		protocols.Origin(3, true), protocols.Origin(3, false),
	} {
		if _, err := core.CompleteCtx(context.Background(), spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}, Cache: cache}); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if len(e.Name()) == 64 {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	sum := sha256.Sum256([]byte(strings.Join(names, "\n")))
	if got := hex.EncodeToString(sum[:]); len(names) != wantKeys || got != wantDigest {
		t.Fatalf("hole keys drifted: %d keys, digest %s; want %d, %s", len(names), got, wantKeys, wantDigest)
	}
}
