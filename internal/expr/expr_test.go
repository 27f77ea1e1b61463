package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniverseBounds(t *testing.T) {
	u := NewUniverse(4)
	if u.NumCaches() != 4 {
		t.Fatalf("NumCaches = %d", u.NumCaches())
	}
	if u.IntWidth() != DefaultIntWidth {
		t.Fatalf("IntWidth = %d", u.IntWidth())
	}
	if u.MinInt() != -128 || u.MaxInt() != 127 {
		t.Fatalf("int range [%d, %d]", u.MinInt(), u.MaxInt())
	}
	if u.SetMask() != 0xF {
		t.Fatalf("SetMask = %x", u.SetMask())
	}
}

func TestUniverseValidation(t *testing.T) {
	if _, err := NewUniverseWidth(0, 8); err == nil {
		t.Error("expected error for 0 caches")
	}
	if _, err := NewUniverseWidth(65, 8); err == nil {
		t.Error("expected error for 65 caches")
	}
	if _, err := NewUniverseWidth(4, 1); err == nil {
		t.Error("expected error for width 1")
	}
	if _, err := NewUniverseWidth(4, 33); err == nil {
		t.Error("expected error for width 33")
	}
}

func TestWrapInt(t *testing.T) {
	u := NewUniverse(2)
	cases := []struct{ in, want int64 }{
		{0, 0}, {127, 127}, {128, -128}, {-128, -128}, {-129, 127},
		{255, -1}, {256, 0}, {-256, 0}, {300, 44},
	}
	for _, c := range cases {
		if got := u.WrapInt(c.in); got != c.want {
			t.Errorf("WrapInt(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDeclareEnum(t *testing.T) {
	u := NewUniverse(2)
	e, err := u.DeclareEnum("MsgType", "GetS", "GetM", "Data")
	if err != nil {
		t.Fatal(err)
	}
	if e.Ord("GetM") != 1 || e.Ord("nope") != -1 {
		t.Errorf("Ord results wrong")
	}
	if _, err := u.DeclareEnum("MsgType", "X"); err == nil {
		t.Error("expected duplicate-name error")
	}
	if _, err := u.DeclareEnum("Empty"); err == nil {
		t.Error("expected empty-enum error")
	}
	if _, err := u.DeclareEnum("Dup", "A", "A"); err == nil {
		t.Error("expected duplicate-value error")
	}
	got, ok := u.Enum("MsgType")
	if !ok || got != e {
		t.Error("Enum lookup failed")
	}
}

func TestValueBasics(t *testing.T) {
	u := NewUniverse(4)
	if !BoolVal(true).Bool() || BoolVal(false).Bool() {
		t.Error("BoolVal broken")
	}
	if IntVal(u, 130).Int() != -126 {
		t.Errorf("IntVal should wrap: got %d", IntVal(u, 130).Int())
	}
	if PIDVal(3).PID() != 3 {
		t.Error("PIDVal broken")
	}
	if SetOf(0, 2).Set() != 0b101 {
		t.Error("SetOf broken")
	}
	if SetSize(SetOf(0, 1, 3)) != 3 {
		t.Error("SetSize broken")
	}
	e := u.MustDeclareEnum("E", "A", "B")
	if EnumValOf(e, "B").EnumOrd() != 1 {
		t.Error("EnumValOf broken")
	}
}

func TestValueString(t *testing.T) {
	u := NewUniverse(4)
	e := u.MustDeclareEnum("St", "I", "S", "M")
	cases := []struct {
		v    Value
		want string
	}{
		{BoolVal(true), "true"},
		{IntVal(u, -5), "-5"},
		{PIDVal(2), "C2"},
		{SetVal(0), "{}"},
		{SetOf(0, 2), "{C0, C2}"},
		{SetOf(2, 10, 11, 63), "{C10, C11, C2, C63}"}, // members sort as text
		{EnumValOf(e, "M"), "M"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueEncodingInjective(t *testing.T) {
	u := NewUniverse(3)
	e1 := u.MustDeclareEnum("E1", "A", "B")
	e2 := u.MustDeclareEnum("E2", "A", "B")
	var all []Value
	for _, typ := range []Type{BoolType, IntType, PIDType, SetType, EnumOf(e1), EnumOf(e2)} {
		all = append(all, ValuesOf(u, typ)...)
	}
	seen := map[string]Value{}
	for _, v := range all {
		key := string(v.AppendEncoding(nil))
		if prev, dup := seen[key]; dup {
			t.Fatalf("encoding collision: %v (%s) and %v (%s)", prev, prev.Type(), v, v.Type())
		}
		seen[key] = v
	}
	// Fixed-size records keep concatenation injective.
	if len(BoolVal(true).AppendEncoding(nil)) != len(SetOf(1, 2).AppendEncoding(nil)) {
		t.Error("encodings are not fixed-size")
	}
}

func TestValuesOfCounts(t *testing.T) {
	u := NewUniverse(3)
	e := u.MustDeclareEnum("E", "A", "B", "C")
	for _, tc := range []struct {
		t Type
		n int
	}{
		{BoolType, 2}, {IntType, 256}, {PIDType, 3}, {SetType, 8}, {EnumOf(e), 3},
	} {
		vals := ValuesOf(u, tc.t)
		if len(vals) != tc.n {
			t.Errorf("ValuesOf(%s) = %d values, want %d", tc.t, len(vals), tc.n)
		}
		if uint64(len(vals)) != u.DomainSize(tc.t) {
			t.Errorf("DomainSize(%s) mismatch", tc.t)
		}
		seen := map[Value]bool{}
		for _, v := range vals {
			if seen[v] {
				t.Errorf("ValuesOf(%s) has duplicates", tc.t)
			}
			seen[v] = true
		}
	}
}

func TestEvalVocabulary(t *testing.T) {
	u := NewUniverse(4)
	env := Env{
		"x": IntVal(u, 5),
		"y": IntVal(u, 3),
		"s": SetOf(0, 1),
		"r": SetOf(1, 2),
		"p": PIDVal(2),
		"b": BoolVal(true),
	}
	x, y := V("x", IntType), V("y", IntType)
	s, r := V("s", SetType), V("r", SetType)
	p := V("p", PIDType)
	b := V("b", BoolType)

	cases := []struct {
		e    Expr
		want Value
	}{
		{Add(x, y), IntVal(u, 8)},
		{Sub(x, y), IntVal(u, 2)},
		{Inc(x), IntVal(u, 6)},
		{Dec(y), IntVal(u, 2)},
		{SetAdd(s, p), SetOf(0, 1, 2)},
		{Card(s), IntVal(u, 2)},
		{SetUnion(s, r), SetOf(0, 1, 2)},
		{SetInter(s, r), SetOf(1)},
		{SetMinus(s, r), SetOf(0)},
		{Singleton(p), SetOf(2)},
		{SetContains(s, p), BoolVal(false)},
		{And(b, BoolC(false)), BoolVal(false)},
		{Or(BoolC(false), b), BoolVal(true)},
		{Not(b), BoolVal(false)},
		{IsZero(Sub(x, x)), BoolVal(true)},
		{Ge(x, y), BoolVal(true)},
		{Gt(y, x), BoolVal(false)},
		{Lt(y, x), BoolVal(true)},
		{Le(x, x), BoolVal(true)},
		{Eq(x, Add(y, IntC(u, 2))), BoolVal(true)},
		{Neq(x, y), BoolVal(true)},
		{Ite(Gt(x, y), x, y), IntVal(u, 5)},
		{Ite(Gt(y, x), x, y), IntVal(u, 3)},
		{NumCaches(), IntVal(u, 4)},
		{Implies(BoolC(false), BoolC(false)), BoolVal(true)},
		{SubsetEq(SetInter(s, r), s), BoolVal(true)},
		{SubsetEq(r, s), BoolVal(false)},
		{EmptySet(), SetVal(0)},
		{True(), BoolVal(true)},
		{False(), BoolVal(false)},
	}
	for _, c := range cases {
		if got := c.e.Eval(u, env); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalWrapping(t *testing.T) {
	u := NewUniverse(2)
	env := Env{"x": IntVal(u, 127)}
	x := V("x", IntType)
	if got := Inc(x).Eval(u, env); got.Int() != -128 {
		t.Errorf("inc(127) = %d, want -128", got.Int())
	}
	if got := Add(x, x).Eval(u, env); got.Int() != -2 {
		t.Errorf("add(127,127) = %d, want -2", got.Int())
	}
}

func TestSize(t *testing.T) {
	u := NewUniverse(2)
	x, y := V("x", IntType), V("y", IntType)
	e := Ite(Gt(x, y), x, y) // ite, gt, x, y, x, y = 6 symbols
	if e.Size() != 6 {
		t.Errorf("Size = %d, want 6", e.Size())
	}
	if x.Size() != 1 || IntC(u, 3).Size() != 1 {
		t.Error("leaf sizes wrong")
	}
}

func TestStringForm(t *testing.T) {
	x, y := V("a", IntType), V("b", IntType)
	e := Ite(Gt(x, y), x, y)
	if got := e.String(); got != "ite(gt(a, b), a, b)" {
		t.Errorf("String = %q", got)
	}
	e = Ge(Add(NumCaches(), IntC(NewUniverse(2), -3)), x)
	if got := e.String(); got != "ge(add(numcaches(), -3), a)" {
		t.Errorf("String = %q", got)
	}
}

func TestPretty(t *testing.T) {
	u := NewUniverse(4)
	e := u.MustDeclareEnum("MT", "READ", "WRITE")
	sharers := V("Sharers", SetType)
	sender := V("Sender", PIDType)
	mt := V("MType", EnumOf(e))
	cases := []struct {
		e    Expr
		want string
	}{
		{SetAdd(sharers, sender), "setadd(Sharers, Sender)"},
		{Eq(mt, EnumC(e, "READ")), "MType = READ"},
		{And(Eq(mt, EnumC(e, "READ")), Neq(sender, PIDC(1))), "MType = READ & Sender != C1"},
		{Or(Not(V("g", BoolType)), V("h", BoolType)), "!g | h"},
		{Gt(Add(V("x", IntType), IntC(u, 1)), V("y", IntType)), "x + 1 > y"},
		{Singleton(sender), "{Sender}"},
		{Sub(V("x", IntType), Sub(V("y", IntType), V("z", IntType))), "x - (y - z)"},
		{And(Or(V("g", BoolType), V("h", BoolType)), V("k", BoolType)), "(g | h) & k"},
	}
	for _, c := range cases {
		if got := Pretty(c.e); got != c.want {
			t.Errorf("Pretty = %q, want %q", got, c.want)
		}
	}
}

func TestSubst(t *testing.T) {
	u := NewUniverse(2)
	a, b, o := V("a", IntType), V("b", IntType), V("o", IntType)
	// C = o >= a & o >= b
	c := And(Ge(o, a), Ge(o, b))
	got := Subst(c, "o", Ite(Gt(a, b), a, b))
	env := Env{"a": IntVal(u, 7), "b": IntVal(u, 2)}
	if !got.Eval(u, env).Bool() {
		t.Error("substituted formula should hold")
	}
	// Subtrees without the variable should be shared (pointer equality).
	noO := Ge(a, b)
	if Subst(noO, "o", a) != noO {
		t.Error("Subst copied an unchanged subtree")
	}
}

func TestVarsAndEqual(t *testing.T) {
	a, b := V("a", IntType), V("b", IntType)
	e := Ite(Gt(a, b), a, b)
	vars := Vars(e)
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Errorf("Vars = %v", vars)
	}
	if !Equal(e, Ite(Gt(a, b), a, b)) {
		t.Error("Equal false negative")
	}
	if Equal(e, Ite(Gt(b, a), a, b)) {
		t.Error("Equal false positive")
	}
	if Equal(a, b) {
		t.Error("distinct vars equal")
	}
}

func TestVocabularyLookup(t *testing.T) {
	u := NewUniverse(2)
	e := u.MustDeclareEnum("E", "A", "B")
	voc := CoherenceVocabulary(u, CoherenceOptions{Enums: []*EnumType{e}, WithEnumConstants: true})
	if _, err := voc.Fn("add"); err != nil {
		t.Error(err)
	}
	if _, err := voc.Fn("equals"); err == nil {
		t.Error("equals should be reported overloaded")
	}
	f, err := voc.FnFor("equals", SetType, SetType)
	if err != nil || f.Ret != BoolType {
		t.Errorf("FnFor(equals, Set, Set) = %v, %v", f, err)
	}
	if _, err := voc.FnFor("equals", SetType, IntType); err == nil {
		t.Error("mixed equals should not resolve")
	}
	if _, err := voc.Fn("A"); err != nil {
		t.Error("enum literal constant missing:", err)
	}
	if _, err := voc.Fn("C0"); err == nil {
		t.Error("PID constants should be off by default")
	}
	voc2 := CoherenceVocabulary(u, CoherenceOptions{WithPIDConstants: true})
	if _, err := voc2.Fn("C1"); err != nil {
		t.Error("PID constant missing with WithPIDConstants")
	}
}

func TestVocabularySharedInstances(t *testing.T) {
	u := NewUniverse(2)
	voc := CoherenceVocabulary(u, CoherenceOptions{})
	f := voc.MustFnFor("equals", IntType, IntType)
	if f != EqualsFn(IntType) {
		t.Error("vocabulary equals is not the canonical instance")
	}
	if voc.MustFn("add") != FnAdd {
		t.Error("vocabulary add is not the canonical instance")
	}
}

func TestRandomExprExactSize(t *testing.T) {
	u := NewUniverse(3)
	voc := CoherenceVocabulary(u, CoherenceOptions{})
	vars := []*Var{V("a", IntType), V("b", IntType), V("s", SetType), V("p", PIDType)}
	rng := rand.New(rand.NewSource(42))
	for _, typ := range []Type{BoolType, IntType, SetType} {
		for size := 1; size <= 12; size++ {
			e, err := RandomExpr(u, rng, voc, vars, typ, size)
			if err != nil {
				t.Fatalf("type %s size %d: %v", typ, size, err)
			}
			if e.Size() != size {
				t.Fatalf("type %s: asked size %d, got %d (%s)", typ, size, e.Size(), e)
			}
			if e.Type() != typ {
				t.Fatalf("wrong type: %s vs %s", e.Type(), typ)
			}
			// Must evaluate without panicking.
			env := RandomEnv(u, rng, vars)
			_ = e.Eval(u, env)
		}
	}
}

func TestRandomExprInfeasible(t *testing.T) {
	u := NewUniverse(3)
	// A vocabulary with no PID-producing functions and no PID vars.
	voc := NewVocabulary(FnAdd)
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomExpr(u, rng, voc, nil, PIDType, 3); err == nil {
		t.Error("expected infeasibility error")
	}
	// Size 2 for Int with only add (arity 2) is impossible.
	if _, err := RandomExpr(u, rng, voc, []*Var{V("a", IntType)}, IntType, 2); err == nil {
		t.Error("expected no size-2 expression with only binary add")
	}
}

func TestZeroOf(t *testing.T) {
	u := NewUniverse(2)
	e := u.MustDeclareEnum("E", "A", "B")
	if ZeroOf(BoolType).Bool() {
		t.Error("zero bool should be false")
	}
	if ZeroOf(IntType).Int() != 0 {
		t.Error("zero int should be 0")
	}
	if ZeroOf(PIDType).PID() != 0 {
		t.Error("zero pid should be 0")
	}
	if ZeroOf(SetType).Set() != 0 {
		t.Error("zero set should be empty")
	}
	if ZeroOf(EnumOf(e)).EnumOrd() != 0 {
		t.Error("zero enum should be first value")
	}
}

// Property: set algebra laws hold for the vocabulary's evaluation functions.
func TestSetAlgebraProperties(t *testing.T) {
	u := NewUniverse(8)
	mask := u.SetMask()
	type lawFn func(a, b, c uint64) bool
	laws := map[string]lawFn{
		"union-commutes": func(a, b, c uint64) bool {
			x := FnSetUnion.Apply(u, []Value{SetVal(a), SetVal(b)})
			y := FnSetUnion.Apply(u, []Value{SetVal(b), SetVal(a)})
			return x == y
		},
		"demorgan": func(a, b, c uint64) bool {
			// c \ (a ∪ b) == (c \ a) ∩ (c \ b)
			lhs := FnSetMinus.Apply(u, []Value{SetVal(c), FnSetUnion.Apply(u, []Value{SetVal(a), SetVal(b)})})
			rhs := FnSetInter.Apply(u, []Value{
				FnSetMinus.Apply(u, []Value{SetVal(c), SetVal(a)}),
				FnSetMinus.Apply(u, []Value{SetVal(c), SetVal(b)}),
			})
			return lhs == rhs
		},
		"size-inclusion-exclusion": func(a, b, c uint64) bool {
			sa := FnSetSize.Apply(u, []Value{SetVal(a)}).Int()
			sb := FnSetSize.Apply(u, []Value{SetVal(b)}).Int()
			si := FnSetSize.Apply(u, []Value{FnSetInter.Apply(u, []Value{SetVal(a), SetVal(b)})}).Int()
			su := FnSetSize.Apply(u, []Value{FnSetUnion.Apply(u, []Value{SetVal(a), SetVal(b)})}).Int()
			return su == sa+sb-si
		},
	}
	for name, law := range laws {
		law := law
		f := func(a, b, c uint64) bool { return law(a&mask, b&mask, c&mask) }
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: wrapping arithmetic agrees with modular arithmetic.
func TestWrapArithmeticProperty(t *testing.T) {
	u := NewUniverse(2)
	f := func(a, b int16) bool {
		x, y := IntVal(u, int64(a)), IntVal(u, int64(b))
		sum := FnAdd.Apply(u, []Value{x, y})
		return sum.Int() == u.WrapInt(x.Int()+y.Int())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEvalPanicsOnUnbound(t *testing.T) {
	u := NewUniverse(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unbound variable")
		}
	}()
	V("nope", IntType).Eval(u, Env{})
}

func TestNewApplyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on type mismatch")
		}
	}()
	NewApply(FnAdd, V("a", IntType), V("s", SetType))
}

func TestEnvClone(t *testing.T) {
	u := NewUniverse(2)
	e := Env{"x": IntVal(u, 1)}
	c := e.Clone()
	c["x"] = IntVal(u, 2)
	if e["x"].Int() != 1 {
		t.Error("Clone aliases the original")
	}
}
