package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"transit/internal/engine/diskcache"
	"transit/internal/expr"
	"transit/internal/synth"
)

// codecSpec builds a spec against a fresh universe whose vocabulary and
// enum cover every wire node kind.
func codecSpec(post func(o, a *expr.Var, st *expr.EnumType) expr.Expr) SolveSpec {
	u := expr.NewUniverse(3)
	st := u.MustDeclareEnum("State", "INVALID", "SHARED", "MODIFIED")
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums: []*expr.EnumType{st}, WithEnumConstants: true, WithoutEnumIte: true,
	})
	a := expr.V("a", expr.IntType)
	o := expr.V("o", expr.BoolType)
	return SolveSpec{
		Problem:  synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{a}, Output: o},
		Examples: []synth.ConcolicExample{{Pre: expr.True(), Post: post(o, a, st)}},
		Limits:   synth.Limits{MaxSize: 6},
	}
}

func TestEncodeDecodeEntryRoundTrip(t *testing.T) {
	spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Ge(a, a))
	})
	u := spec.Problem.U
	st, _ := u.Enum("State")

	// An expression exercising vars, applies, and every constant kind.
	cases := []expr.Expr{
		spec.Problem.Vars[0],
		expr.Ge(spec.Problem.Vars[0], expr.IntC(u, 3)),
		expr.And(expr.True(), expr.Not(expr.False())),
		expr.Eq(expr.NewConst(expr.EnumVal(st, 2)), expr.NewConst(expr.EnumVal(st, 2))),
		expr.SetContains(expr.NewConst(expr.SetOf(0, 2)), expr.NewConst(expr.PIDVal(1))),
	}
	for i, e := range cases {
		if e.Type() != expr.BoolType && e.Type() != expr.IntType {
			t.Fatalf("case %d: unexpected type setup", i)
		}
		ent := CacheEntry{Expr: e, Stats: synth.Stats{
			Concrete:   synth.ConcreteStats{Enumerated: 42, Kept: 7, MaxSizeSeen: 5},
			SMTQueries: 3, Iterations: 2, SMTClauses: 99, BankReuses: 1,
		}}
		raw, err := EncodeEntry(ent)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		dec, ok := DecodeEntry(raw, spec)
		if !ok {
			t.Fatalf("case %d: decode failed for %s", i, e)
		}
		if dec.Expr.String() != e.String() {
			t.Fatalf("case %d: round-trip changed expression: %s vs %s", i, dec.Expr, e)
		}
		if dec.Stats.Concrete.Enumerated != 42 || dec.Stats.SMTQueries != 3 ||
			dec.Stats.SMTClauses != 99 || dec.Stats.BankReuses != 1 {
			t.Fatalf("case %d: stats mangled: %+v", i, dec.Stats)
		}
	}
}

// TestDecodeBindsToTargetUniverse encodes against one universe and
// decodes against a structurally identical but distinct one: every enum
// type and function pointer in the decoded expression must belong to the
// target, or downstream identity checks would blow up — the disk analogue
// of TestCacheHitsRehydrateAcrossUniverses.
func TestDecodeBindsToTargetUniverse(t *testing.T) {
	post := func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Ge(a, expr.IntC(nil, 0)))
	}
	_ = post
	mk := func() (SolveSpec, *expr.EnumType) {
		spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
			return expr.Eq(o, expr.Eq(a, a))
		})
		st, _ := spec.Problem.U.Enum("State")
		return spec, st
	}
	src, srcEnum := mk()
	dst, dstEnum := mk()
	if src.Key() != dst.Key() {
		t.Fatal("structurally identical specs must share a key")
	}

	e := expr.Eq(expr.NewConst(expr.EnumVal(srcEnum, 1)), expr.NewConst(expr.EnumVal(srcEnum, 1)))
	raw, err := EncodeEntry(CacheEntry{Expr: e})
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := DecodeEntry(raw, dst)
	if !ok {
		t.Fatal("decode against sibling universe failed")
	}
	var check func(x expr.Expr)
	check = func(x expr.Expr) {
		if ty := x.Type(); ty.Kind == expr.KindEnum && ty.Enum != dstEnum {
			t.Fatalf("decoded node %s carries foreign enum type", x)
		}
		if ap, ok := x.(*expr.Apply); ok {
			for _, arg := range ap.Args {
				check(arg)
			}
		}
	}
	check(dec.Expr)
	if got := dec.Expr.Eval(dst.Problem.U, expr.Env{}); !got.Bool() {
		t.Fatal("decoded expression misevaluates")
	}
}

// TestDecodeRejectsDrift checks the miss-not-poison property: entries
// whose symbols do not exist in the target spec decode to a miss.
func TestDecodeRejectsDrift(t *testing.T) {
	spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Eq(a, a))
	})
	for _, raw := range []string{
		`not json`,
		`{"version":99,"expr":{"var":"a","vt":"Int"}}`,                           // foreign version
		`{"version":1,"expr":{"var":"zz","vt":"Int"}}`,                           // unknown variable
		`{"version":1,"expr":{"var":"a","vt":"Bool"}}`,                           // type drift
		`{"version":1,"expr":{"fn":"frobnicate(Int) -> Int","args":[]}}`,         // unknown function
		`{"version":1,"expr":{"const":{"k":"enum","e":"Nope","n":0,"en":"X"}}}`,  // unknown enum
		`{"version":1,"expr":{"const":{"k":"enum","e":"State","n":9,"en":"X"}}}`, // ordinal range
		`{"version":1,"expr":{"const":{"k":"pid","n":77}}}`,                      // pid range
	} {
		if _, ok := DecodeEntry([]byte(raw), spec); ok {
			t.Fatalf("drifted entry decoded: %s", raw)
		}
	}
}

// TestCacheBackendReadThrough solves against one Cache front-end backed
// by a disk store, then reopens the directory under a second front-end
// in the same process: the second Fetch must be served from disk, with
// an identical expression and replayed stats.
func TestCacheBackendReadThrough(t *testing.T) {
	dir := t.TempDir()
	spec := maxSpec(expr.NewUniverse(3))

	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache1 := NewCacheWithBackend(store)
	eng1 := New(Config{Cache: cache1})
	e1, st1, out1, err := eng1.SolveConcolic(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Cached {
		t.Fatal("first solve must miss")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cache2 := NewCacheWithBackend(store2)
	eng2 := New(Config{Cache: cache2})
	e2, st2, out2, err := eng2.SolveConcolic(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Cached || out2.Tier != TierDisk {
		t.Fatal("fresh front-end over a populated store must hit on disk")
	}
	if !expr.Equal(e1, e2) {
		t.Fatalf("persistent cache changed the answer: %s vs %s", e1, e2)
	}
	if st1.SMTQueries != st2.SMTQueries || st1.Concrete.Enumerated != st2.Concrete.Enumerated ||
		st1.Iterations != st2.Iterations {
		t.Fatalf("disk replay lost counters: %+v vs %+v", st1, st2)
	}
	if cache2.DiskHits() != 1 {
		t.Fatalf("DiskHits = %d, want 1", cache2.DiskHits())
	}
	// The disk hit is promoted to memory: a second Fetch stays in-process.
	if _, _, _, tier, ok := cache2.Fetch(spec); !ok || tier != TierMem {
		t.Fatalf("promoted entry missing or wrong tier %q", tier)
	}
	if cache2.DiskHits() != 1 {
		t.Fatalf("promotion did not stick: DiskHits = %d", cache2.DiskHits())
	}
}

// TestTwoFrontEndsSharedStoreRace hammers one shared disk store from two
// Cache front-ends concurrently — Put on one side, Fetch on the other —
// over a set of distinct specs. Run under -race this is the
// concurrent-sharing safety test for the whole stack.
func TestTwoFrontEndsSharedStoreRace(t *testing.T) {
	dir := t.TempDir()
	store, err := diskcache.Open(dir, diskcache.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	front1 := NewCacheWithBackend(store)
	front2 := NewCacheWithBackend(store)

	// Distinct specs via distinct concrete constants in the example.
	specs := make([]SolveSpec, 24)
	for i := range specs {
		k := int64(i % 8)
		specs[i] = codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
			return expr.Eq(o, expr.Ge(a, expr.IntC(expr.NewUniverse(3), k)))
		})
		// Distinguish further by MaxSize so all 24 keys differ.
		specs[i].Limits.MaxSize = 6 + i/8
	}
	entryFor := func(spec SolveSpec) CacheEntry {
		return CacheEntry{Expr: spec.Examples[0].Post, Stats: synth.Stats{SMTQueries: 1}}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			front := front1
			if w%2 == 1 {
				front = front2
			}
			for round := 0; round < 30; round++ {
				spec := specs[(w+round)%len(specs)]
				if re, _, key, _, ok := front.Fetch(spec); ok {
					if re.String() != spec.Examples[0].Post.String() {
						t.Errorf("worker %d: wrong entry for %s", w, key)
						return
					}
				} else {
					front.Put(key, entryFor(spec))
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Everything written by either front-end is readable by both.
	for i, spec := range specs {
		if _, _, _, _, ok := front1.Fetch(spec); !ok {
			t.Fatalf("spec %d missing from front1", i)
		}
		if _, _, _, _, ok := front2.Fetch(spec); !ok {
			t.Fatalf("spec %d missing from front2", i)
		}
	}
	if store.Len() == 0 {
		t.Fatal("store empty after race")
	}
}

// TestBackendPutEncodablePayloads sanity-checks that every solver output
// shape the suite produces survives an encode (guarding the write-through
// path against silently memory-only entries).
func TestBackendPutEncodablePayloads(t *testing.T) {
	spec := maxSpec(expr.NewUniverse(3))
	eng := New(Config{Cache: NewCache()})
	e, st, _, err := eng.SolveConcolic(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeEntry(CacheEntry{Expr: e, Stats: st})
	if err != nil {
		t.Fatalf("solver output unencodable: %v", err)
	}
	if _, ok := DecodeEntry(raw, spec); !ok {
		t.Fatal("solver output undecodable")
	}
}

func TestDiskEntrySurvivesManySpecShapes(t *testing.T) {
	// A quick sweep over value kinds as output types.
	u := expr.NewUniverse(3)
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{WithSetLiterals: true})
	s := expr.V("s", expr.SetType)
	for i, tc := range []struct {
		out  expr.Type
		post func(o *expr.Var) expr.Expr
	}{
		{expr.SetType, func(o *expr.Var) expr.Expr { return expr.Eq(o, expr.SetUnion(s, s)) }},
		{expr.IntType, func(o *expr.Var) expr.Expr { return expr.Eq(o, expr.Card(s)) }},
	} {
		o := expr.V("o", tc.out)
		spec := SolveSpec{
			Problem:  synth.Problem{U: u, Vocab: voc, Vars: []*expr.Var{s}, Output: o},
			Examples: []synth.ConcolicExample{{Pre: expr.True(), Post: tc.post(o)}},
			Limits:   synth.Limits{MaxSize: 6},
		}
		eng := New(Config{Cache: NewCache()})
		e, st, _, err := eng.SolveConcolic(context.Background(), spec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		raw, err := EncodeEntry(CacheEntry{Expr: e, Stats: st})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		dec, ok := DecodeEntry(raw, spec)
		if !ok || dec.Expr.String() != e.String() {
			t.Fatalf("case %d: round trip failed (%v)", i, ok)
		}
	}
}

func TestWireFormatExample(t *testing.T) {
	// Document (and pin loosely) the wire shape: a decoded example from a
	// hand-written literal keeps working even as the encoder evolves.
	spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Eq(a, a))
	})
	raw := fmt.Sprintf(`{"version":%d,"expr":{"fn":"equals(Int, Int) -> Bool","args":[{"var":"a","vt":"Int"},{"const":{"k":"int","n":3}}]},"stats":{"smt_queries":5}}`, wireVersion)
	dec, ok := DecodeEntry([]byte(raw), spec)
	if !ok {
		t.Fatal("hand-written wire entry rejected")
	}
	if got := dec.Expr.String(); got != "equals(a, 3)" {
		t.Fatalf("decoded %s", got)
	}
	if dec.Stats.SMTQueries != 5 {
		t.Fatalf("stats lost: %+v", dec.Stats)
	}
}
