package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"transit/internal/engine/diskcache"
	"transit/internal/expr"
	"transit/internal/obs"
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

	// Answers to the Bool hole exercising vars, applies, and every
	// constant kind, each with a two-round trace.
	cases := []expr.Expr{
		expr.Ge(spec.Problem.Vars[0], expr.IntC(u, 3)),
		expr.And(expr.True(), expr.Not(expr.False())),
		expr.Eq(expr.NewConst(expr.EnumVal(st, 2)), expr.NewConst(expr.EnumVal(st, 2))),
		expr.SetContains(expr.NewConst(expr.SetOf(0, 2)), expr.NewConst(expr.PIDVal(1))),
	}
	trace := []synth.IterRecord{
		{Round: 1, Candidate: "true()", KilledBy: 0, Witness: "a=1", CounterOut: "false", Enumerated: 5, Kept: 2},
		{Round: 2, Candidate: "ge(a, 3)", Accepted: true, KilledBy: -1, Enumerated: 37, Kept: 5, Resumed: true},
	}
	for i, e := range cases {
		if e.Type() != expr.BoolType {
			t.Fatalf("case %d: unexpected type setup", i)
		}
		ent := CacheEntry{Expr: e, Stats: synth.Stats{
			Concrete:   synth.ConcreteStats{Enumerated: 42, Kept: 7, MaxSizeSeen: 5},
			SMTQueries: 3, Iterations: 2, SMTClauses: 99, BankReuses: 1, Trace: trace,
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
		if !slices.Equal(dec.Stats.Trace, trace) {
			t.Fatalf("case %d: trace mangled: %+v", i, dec.Stats.Trace)
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
// whose symbols do not exist in the target spec decode to a miss. The
// hole is an Int, so that an entry naming the Int input a fits it and
// only the bind's own checks can turn the drifted entries away; the
// control entry must decode.
func TestDecodeRejectsDrift(t *testing.T) {
	spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Eq(a, a))
	})
	o := expr.V("o", expr.IntType)
	spec.Problem.Output = o
	spec.Examples = []synth.ConcolicExample{{Pre: expr.True(), Post: expr.Eq(o, spec.Problem.Vars[0])}}
	entry := func(e string) string { return fmt.Sprintf(`{"version":%d,"expr":%s}`, wireVersion, e) }

	if _, ok := DecodeEntry([]byte(entry(`{"var":"a","vt":"Int"}`)), spec); !ok {
		t.Fatal("control entry a: Int does not decode")
	}
	for _, raw := range []string{
		`not json`,
		`{"version":99,"expr":{"var":"a","vt":"Int"}}`,                    // foreign version
		entry(`{"var":"zz","vt":"Int"}`),                                  // unknown variable
		entry(`{"var":"a","vt":"Bool"}`),                                  // type drift
		entry(`{"fn":"frobnicate(Int) -> Int","args":[]}`),                // unknown function
		entry(`{"const":{"k":"enum","e":"Nope","n":0,"en":"X"}}`),         // unknown enum
		entry(`{"const":{"k":"enum","e":"State","n":9,"en":"X"}}`),        // ordinal range
		entry(`{"const":{"k":"enum","e":"State","n":1,"en":"MODIFIED"}}`), // ordinal renamed
		entry(`{"const":{"k":"pid","n":77}}`),                             // pid range
		entry(`{"const":{"k":"set","m":255}}`),                            // set beyond the caches
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
	e1, st1, tier1, err := NewCacheWithBackend(store).Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tier1 != TierMiss {
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
	reg := obs.NewRegistry()
	e2, st2, tier2, err := cache2.Solve(obs.WithMetrics(context.Background(), reg), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tier2 != TierDisk {
		t.Fatal("fresh front-end over a populated store must hit on disk")
	}
	if !expr.Equal(e1, e2) {
		t.Fatalf("persistent cache changed the answer: %s vs %s", e1, e2)
	}
	if st1.SMTQueries != st2.SMTQueries || st1.Concrete.Enumerated != st2.Concrete.Enumerated ||
		st1.Iterations != st2.Iterations {
		t.Fatalf("disk replay lost counters: %+v vs %+v", st1, st2)
	}
	if got := reg.Get("engine.cache.disk_hits"); got != 1 {
		t.Fatalf("engine.cache.disk_hits = %d, want 1", got)
	}
	// The disk hit is promoted to memory: a second Fetch stays in-process.
	if _, _, _, tier, ok := cache2.Fetch(spec); !ok || tier != TierMem {
		t.Fatalf("promoted entry missing or wrong tier %q", tier)
	}
}

// TestTwoFrontEndsSharedStoreRace hammers one shared disk store from two
// Cache front-ends concurrently — Put on one side, Fetch on the other —
// over a set of distinct specs. Run under -race this is the
// concurrent-sharing safety test for the whole stack.
func TestTwoFrontEndsSharedStoreRace(t *testing.T) {
	dir := t.TempDir()
	store, err := diskcache.Open(dir, diskcache.Options{})
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
	// The answer to o = (a >= k) is its right-hand side, a >= k.
	answer := func(spec SolveSpec) expr.Expr { return spec.Examples[0].Post.(*expr.Apply).Args[1] }

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
					if re.String() != answer(spec).String() {
						t.Errorf("worker %d: wrong entry for %s", w, key)
						return
					}
				} else {
					front.Put(key, CacheEntry{Expr: answer(spec), Stats: synth.Stats{SMTQueries: 1}})
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

// TestFetchRejectsEntriesThatDoNotFitTheHole stores two entries no solve
// returns for the Bool hole o — the Int constant 1, and o itself — on
// each tier, and checks that Fetch reads both as misses.
func TestFetchRejectsEntriesThatDoNotFitTheHole(t *testing.T) {
	spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Ge(a, a))
	})
	entries := map[string]expr.Expr{
		fmt.Sprintf(`{"version":%d,"expr":{"const":{"k":"int","n":1}},"stats":{}}`, wireVersion): expr.IntC(spec.Problem.U, 1),
		fmt.Sprintf(`{"version":%d,"expr":{"var":"o","vt":"Bool"},"stats":{}}`, wireVersion):     spec.Problem.Output,
	}
	for raw, e := range entries {
		mem := NewCache()
		mem.Put(spec.Key(), CacheEntry{Expr: e})
		if got, _, _, tier, ok := mem.Fetch(spec); ok {
			t.Errorf("memory tier answers the Bool hole with %s (%s)", got, tier)
		}

		store, err := diskcache.Open(t.TempDir(), diskcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		store.Put(spec.Key(), []byte(raw))
		if got, _, _, tier, ok := NewCacheWithBackend(store).Fetch(spec); ok {
			t.Errorf("disk tier answers the Bool hole with %s (%s) from %s", got, tier, raw)
		}
		store.Close()
	}
}

// TestBackendPutEncodablePayloads sanity-checks that every solver output
// shape the suite produces survives an encode (guarding the write-through
// path against silently memory-only entries).
func TestBackendPutEncodablePayloads(t *testing.T) {
	spec := maxSpec(expr.NewUniverse(3))
	e, st, _, err := NewCache().Solve(context.Background(), spec)
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
		e, st, _, err := NewCache().Solve(context.Background(), spec)
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

// TestBindRejectsMisshapenTraces stores a fitting answer with traces no
// solve of the hole writes, on each tier, and checks that every one is a
// miss, while the well-shaped trace is a hit on both.
func TestBindRejectsMisshapenTraces(t *testing.T) {
	spec := codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Ge(a, a))
	})
	answer := expr.Ge(spec.Problem.Vars[0], spec.Problem.Vars[0])
	refuted := synth.IterRecord{Round: 1, Candidate: "false()", KilledBy: 0, Witness: "a=0", CounterOut: "true"}
	accepted := synth.IterRecord{Round: 2, Candidate: "ge(a, a)", Accepted: true, KilledBy: -1}
	with := func(rec synth.IterRecord, edit func(*synth.IterRecord)) synth.IterRecord {
		edit(&rec)
		return rec
	}
	fetch := func(trace []synth.IterRecord, iterations int) (mem, disk bool) {
		ent := CacheEntry{Expr: answer, Stats: synth.Stats{Iterations: iterations, Trace: trace}}
		c := NewCache()
		c.Put(spec.Key(), ent)
		_, _, _, _, mem = c.Fetch(spec)
		raw, err := EncodeEntry(ent)
		if err != nil {
			t.Fatal(err)
		}
		_, disk = DecodeEntry(raw, spec)
		return mem, disk
	}
	if mem, disk := fetch([]synth.IterRecord{refuted, accepted}, 2); !mem || !disk {
		t.Fatalf("well-shaped trace: memory hit %v, disk hit %v", mem, disk)
	}
	for name, tc := range map[string]struct {
		trace      []synth.IterRecord
		iterations int
	}{
		"fewer rounds than iterations": {[]synth.IterRecord{accepted}, 2},
		"more rounds than iterations":  {[]synth.IterRecord{refuted, accepted}, 1},
		"rounds misnumbered":           {[]synth.IterRecord{refuted, with(accepted, func(r *synth.IterRecord) { r.Round = 3 })}, 2},
		"killer beyond the examples":   {[]synth.IterRecord{with(refuted, func(r *synth.IterRecord) { r.KilledBy = 1 }), accepted}, 2},
		"refuted round without killer": {[]synth.IterRecord{with(refuted, func(r *synth.IterRecord) { r.KilledBy = -1 }), accepted}, 2},
		"early round accepted":         {[]synth.IterRecord{with(refuted, func(r *synth.IterRecord) { r.Accepted = true }), accepted}, 2},
		"last round refuted":           {[]synth.IterRecord{refuted, with(accepted, func(r *synth.IterRecord) { r.Accepted, r.KilledBy = false, 0 })}, 2},
		"accepted round with killer":   {[]synth.IterRecord{refuted, with(accepted, func(r *synth.IterRecord) { r.KilledBy = 0 })}, 2},
	} {
		if mem, disk := fetch(tc.trace, tc.iterations); mem || disk {
			t.Errorf("%s: memory hit %v, disk hit %v", name, mem, disk)
		}
	}
}
