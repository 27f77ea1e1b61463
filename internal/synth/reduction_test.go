package synth

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"transit/internal/expr"
)

// reductionBench is one CEGIS workload of the interpretation-reduction
// parity suite: a Table 3-shaped problem plus the size its known winner
// has, used to bound the search.
type reductionBench struct {
	name         string
	expectedSize int
	build        func(u *expr.Universe) (Problem, []ConcolicExample)
}

// reductionIntProblem builds a coherence-vocabulary problem whose variable
// types are derived from the conventional name prefixes used across the
// suite (s* sets, p* PIDs, everything else ints).
func reductionIntProblem(u *expr.Universe, outType expr.Type, names ...string) (Problem, []*expr.Var) {
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	var vars []*expr.Var
	for _, n := range names {
		t := expr.IntType
		switch n[0] {
		case 's':
			t = expr.SetType
		case 'p':
			t = expr.PIDType
		}
		vars = append(vars, expr.V(n, t))
	}
	return Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", outType)}, vars
}

// reductionBenches covers the CEGIS shapes that stress the bank/reduction
// machinery differently: a guarded spec whose rounds resume cleanly, the
// deep-winner workload whose rounds jump sizes (abs-diff), a
// mixed-enum-typed conditional, the set workload whose stale rounds are
// skipped by the adopt-time probe (sym-diff), and a small single-round
// solve.
func reductionBenches() []reductionBench {
	return []reductionBench{
		{"max2-guarded", 6, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.IntType, "a", "b")
			a, b := vars[0], vars[1]
			o := p.Output
			return p, []ConcolicExample{
				{Pre: expr.Gt(a, b), Post: expr.Eq(o, a)},
				{Pre: expr.Gt(b, a), Post: expr.Eq(o, b)},
			}
		}},
		{"abs-diff", 9, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.IntType, "a", "b")
			a, b := vars[0], vars[1]
			o := p.Output
			return p, []ConcolicExample{
				{Pre: expr.Gt(a, b), Post: expr.Eq(o, expr.Sub(a, b))},
				{Pre: expr.Ge(b, a), Post: expr.Eq(o, expr.Sub(b, a))},
			}
		}},
		{"enum-conditional", 6, func(u *expr.Universe) (Problem, []ConcolicExample) {
			et := u.MustDeclareEnum("RedE", "c1", "c2", "c3")
			voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
				Enums: []*expr.EnumType{et}, WithEnumConstants: true, WithoutEnumIte: true,
			})
			a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
			e := expr.V("e", expr.EnumOf(et))
			o := expr.V("o", expr.IntType)
			p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b, e}, Output: o}
			return p, []ConcolicExample{
				{Pre: expr.Eq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, a)},
				{Pre: expr.Neq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, b)},
			}
		}},
		{"sym-diff", 7, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.SetType, "s1", "s2")
			s1, s2 := vars[0], vars[1]
			o := p.Output
			un := expr.SetUnion(s1, s2)
			inter := expr.SetInter(s1, s2)
			return p, []ConcolicExample{
				{Pre: expr.True(), Post: expr.SubsetEq(o, un)},
				{Pre: expr.True(), Post: expr.Eq(expr.SetInter(o, inter), expr.NewConst(expr.SetVal(0)))},
				{Pre: expr.True(), Post: expr.Eq(expr.SetUnion(o, inter), un)},
			}
		}},
		{"count-others", 5, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.IntType, "s1", "p1")
			s1, p1 := vars[0], vars[1]
			o := p.Output
			return p, []ConcolicExample{{
				Pre:  expr.True(),
				Post: expr.Eq(o, expr.Card(expr.SetMinus(s1, expr.Singleton(p1)))),
			}}
		}},
	}
}

// TestSigKeyLayout pins the packed signature layout the pools, the bank
// and the shadow machinery rely on: one fixed-width field per coordinate,
// as wide as the type's domain in the universe, so a row's key is its
// coordinates' fields in order. The widths are load-bearing — extension
// appends fields in place, the goal test is a fixed-offset suffix compare,
// and every row of a store has one stride — so a change here must be
// deliberate.
func TestSigKeyLayout(t *testing.T) {
	wide := func(caches int, intWidth uint) *expr.Universe {
		u, err := expr.NewUniverseWidth(caches, intWidth)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	u3 := wide(3, 4)
	small := u3.MustDeclareEnum("Small", "A", "B", "C")
	vals := make([]string, 257)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	big := u3.MustDeclareEnum("Big", vals...)
	cases := []struct {
		name string
		u    *expr.Universe
		t    expr.Type
		w    int
		v    expr.Value
	}{
		{"bool", u3, expr.BoolType, 1, expr.BoolVal(true)},
		{"pid/3", u3, expr.PIDType, 1, expr.PIDVal(2)},
		{"pid/64", wide(64, 8), expr.PIDType, 1, expr.PIDVal(63)},
		{"enum/3", u3, expr.EnumOf(small), 1, expr.EnumVal(small, 2)},
		{"enum/257", u3, expr.EnumOf(big), 2, expr.EnumVal(big, 256)},
		{"int/4", u3, expr.IntType, 1, expr.IntVal(u3, -8)},
		{"int/8", wide(3, 8), expr.IntType, 1, expr.IntVal(wide(3, 8), -128)},
		{"int/16", wide(3, 16), expr.IntType, 2, expr.IntVal(wide(3, 16), -30000)},
		{"int/32", wide(3, 32), expr.IntType, 4, expr.IntVal(wide(3, 32), -1<<31)},
		{"set/3", u3, expr.SetType, 1, expr.SetVal(5)},
		{"set/8", wide(8, 8), expr.SetType, 1, expr.SetVal(0xff)},
		{"set/9", wide(9, 8), expr.SetType, 2, expr.SetVal(0x1ff)},
		{"set/64", wide(64, 8), expr.SetType, 8, expr.SetVal(1<<63 | 1)},
	}
	for _, c := range cases {
		f := newField(c.u, c.t)
		if f.w != c.w {
			t.Errorf("%s: field width %d, want %d", c.name, f.w, c.w)
			continue
		}
		buf := make([]byte, f.w)
		f.put(buf, c.v)
		if got := f.get(buf); got != c.v {
			t.Errorf("%s: %v reads back as %v", c.name, c.v, got)
		}
	}

	// A store's rows are [shadow probes..., examples...] at one stride,
	// and the goal is the packed example outputs: a fixed-offset suffix.
	// Ints are stored offset by half their domain: 1 and 300 at 16 bits
	// are 0x8001 and 0x812c.
	u := wide(3, 16)
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	p := Problem{U: u, Vocab: expr.CoherenceVocabulary(u, expr.CoherenceOptions{}),
		Vars: []*expr.Var{a, b}, Output: expr.V("o", expr.IntType)}
	exs := []ConcreteExample{
		{S: expr.Env{"a": expr.IntVal(u, 1), "b": expr.IntVal(u, -2)}, Out: expr.IntVal(u, 1)},
		{S: expr.Env{"a": expr.IntVal(u, 300), "b": expr.IntVal(u, 7)}, Out: expr.IntVal(u, 300)},
	}
	en := newEnumerator(context.Background(), newSchema(p), p, exs, Limits{MaxSize: 3}.withDefaults(), time.Time{}, true)
	en.initFresh()
	st := &en.stores[en.outStore]
	if want := 2 * (3 + 2); en.nProbe != 3 || st.stride != want {
		t.Fatalf("int/16 rows: %d shadow probes, stride %d; want 3 and %d", en.nProbe, st.stride, want)
	}
	if found, err := en.runAtoms(0); err != nil || !found {
		t.Fatalf("atom tier: found=%v err=%v", found, err)
	}
	row := st.row(en.win.r)
	if got, want := row[en.nProbe*st.w:], []byte{0x01, 0x80, 0x2c, 0x81}; !bytes.Equal(got, want) || !bytes.Equal(en.goal, want) {
		t.Errorf("winner a's key %x and goal %x, want %x", got, en.goal, want)
	}
}

// TestInterpReductionParity pins the reduction's central contract: with
// interpretation reduction and bank reuse enabled, SolveConcolic returns
// exactly the expression the restart-per-round baseline returns, on every
// workload of the suite.
func TestInterpReductionParity(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name string
		mut  func(*Limits)
	}{
		{"baseline", func(l *Limits) { l.NoBankReuse = true }},
		{"bank+reduction", func(l *Limits) {}},
	}
	for _, b := range reductionBenches() {
		// One universe per workload: identity-level equality (enum types,
		// interned values) must hold across configurations.
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		prob, exs := b.build(u)
		var ref expr.Expr
		for _, cf := range configs {
			limits := Limits{MaxSize: b.expectedSize + 2, Timeout: 2 * time.Minute}
			cf.mut(&limits)
			e, _, err := SolveConcolicCtx(ctx, prob, exs, limits)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, cf.name, err)
			}
			if ref == nil {
				ref = e
				continue
			}
			if !expr.Equal(ref, e) {
				t.Errorf("%s/%s: answer diverged: %s vs baseline %s", b.name, cf.name, e, ref)
			}
		}
	}
}

// TestUnrealizableHole exercises the unrealizability atlas end to end: a
// vocabulary with no functions can only express the input variables, so a
// spec demanding max(a, b) is impossible — and provably so, since the
// atlas reaches closure immediately. The solve must fail with
// ErrUnrealizable (not the retryable ErrNoExpression) and flag the stats.
func TestUnrealizableHole(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	p := Problem{U: u, Vocab: expr.NewVocabulary(), Vars: []*expr.Var{a, b}, Output: o}
	exs := []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
	}}
	_, stats, err := SolveConcolicCtx(context.Background(), p, exs, Limits{MaxSize: 4, Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("solve succeeded on an unrealizable hole")
	}
	if !errors.Is(err, ErrUnrealizable) {
		t.Fatalf("error = %v, want ErrUnrealizable", err)
	}
	if errors.Is(err, ErrNoExpression) {
		t.Fatal("ErrUnrealizable must not wrap ErrNoExpression: retries would multiply the exhaustion cost")
	}
	if !stats.Unrealizable {
		t.Error("stats.Unrealizable not set")
	}
}

// TestUnrealizableInconclusiveKeepsNoExpression pins the atlas's
// conservative side: two 8-bit Ints give 65,536 input valuations, past
// the atlas's 512-valuation domain cap, so the check gives up and an
// exhausted search keeps its plain retryable ErrNoExpression.
func TestUnrealizableInconclusiveKeepsNoExpression(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	p := Problem{U: u, Vocab: expr.NewVocabulary(), Vars: []*expr.Var{a, b}, Output: o}
	exs := []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
	}}
	limits := Limits{MaxSize: 4, Timeout: 30 * time.Second}
	_, stats, err := SolveConcolicCtx(context.Background(), p, exs, limits)
	if !errors.Is(err, ErrNoExpression) {
		t.Fatalf("error = %v, want ErrNoExpression", err)
	}
	if errors.Is(err, ErrUnrealizable) || stats.Unrealizable {
		t.Fatal("unrealizability must not be asserted past the atlas's domain cap")
	}
}

// FuzzInterpReductionParity differentially fuzzes the reduced bank-reusing
// solver against the sequential restart-per-round baseline: pointwise
// specs generated from the fuzzed input pin concrete outputs for max-style
// workloads, and both solvers must return the same expression (or fail
// identically). Multi-example specs drive multi-round CEGIS, which is
// where bank extension, shadow adoption, and the stale-skip probe all run.
func FuzzInterpReductionParity(f *testing.F) {
	f.Add(byte(1), byte(2), byte(3), byte(0), byte(2), byte(2), byte(2), false)
	f.Add(byte(0), byte(3), byte(1), byte(1), byte(3), byte(2), byte(3), true)
	f.Add(byte(2), byte(0), byte(0), byte(2), byte(1), byte(3), byte(1), false)
	f.Fuzz(func(t *testing.T, a1, b1, a2, b2, a3, b3, n byte, useMin bool) {
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
		a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
		o := expr.V("o", expr.IntType)
		p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o}
		dom := int64(u.DomainSize(expr.IntType))
		if dom == 0 {
			t.Skip("no int domain")
		}
		pick := func(x byte) expr.Expr { return expr.NewConst(expr.IntVal(u, int64(x)%dom)) }
		out := func(x, y byte) expr.Expr {
			xi, yi := int64(x)%dom, int64(y)%dom
			if useMin == (xi < yi) {
				return expr.NewConst(expr.IntVal(u, xi))
			}
			return expr.NewConst(expr.IntVal(u, yi))
		}
		pairs := [][2]byte{{a1, b1}, {a2, b2}, {a3, b3}}
		var exs []ConcolicExample
		for i := 0; i < 1+int(n)%3; i++ {
			av, bv := pairs[i][0], pairs[i][1]
			exs = append(exs, ConcolicExample{
				Pre:  expr.And(expr.Eq(a, pick(av)), expr.Eq(b, pick(bv))),
				Post: expr.Eq(o, out(av, bv)),
			})
		}
		limits := Limits{MaxSize: 7, Timeout: time.Minute}
		base := limits
		base.NoBankReuse = true
		eRef, _, errRef := SolveConcolicCtx(context.Background(), p, exs, base)
		eRed, _, errRed := SolveConcolicCtx(context.Background(), p, exs, limits)
		if (errRef == nil) != (errRed == nil) {
			t.Fatalf("outcome diverged: baseline err=%v reduced err=%v", errRef, errRed)
		}
		if errRef == nil && !expr.Equal(eRef, eRed) {
			t.Fatalf("answer diverged: baseline %s reduced %s", eRef, eRed)
		}
	})
}
