package expr

import "fmt"

// Func and Vocabulary implement the paper's expression vocabulary
// G = (T, F) (§4.1). See prims.go for the canonical function instances.

// Func is a typed function symbol: a name, parameter types, result type,
// and a total evaluation function over the Universe's carrier sets.
// Arity-zero Funcs are the vocabulary's constants.
type Func struct {
	Name   string
	Params []Type
	Ret    Type
	// Apply evaluates the function on argument values. Implementations
	// must be total on the finite carriers and agree exactly with the SMT
	// encoding in internal/smt.
	Apply func(u *Universe, args []Value) Value
}

// Arity reports the number of parameters.
func (f *Func) Arity() int { return len(f.Params) }

func (f *Func) String() string {
	s := f.Name + "("
	for i, p := range f.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + ") -> " + f.Ret.String()
}

// Vocabulary is the finite set of typed function symbols available to the
// synthesizer. Each symbol's signature (Func.String) is rendered once, in
// Add: the memo cache keys and rebinds expressions by signature.
type Vocabulary struct {
	funcs  []*Func
	sigs   []string // sigs[i] is funcs[i].String()
	byName map[string][]*Func
	bySig  map[string]*Func
}

// NewVocabulary builds a vocabulary from function symbols.
func NewVocabulary(funcs ...*Func) *Vocabulary {
	v := &Vocabulary{byName: make(map[string][]*Func), bySig: make(map[string]*Func)}
	for _, f := range funcs {
		v.Add(f)
	}
	return v
}

// Add appends a function symbol.
func (v *Vocabulary) Add(f *Func) {
	sig := f.String()
	v.funcs = append(v.funcs, f)
	v.sigs = append(v.sigs, sig)
	v.byName[f.Name] = append(v.byName[f.Name], f)
	v.bySig[sig] = f
}

// Funcs returns all function symbols in insertion order.
func (v *Vocabulary) Funcs() []*Func { return v.funcs }

// Sigs returns every function symbol's signature (Func.String), in
// insertion order.
func (v *Vocabulary) Sigs() []string { return v.sigs }

// BySig returns the function symbol with the given signature; of several
// with the same signature, the one added last.
func (v *Vocabulary) BySig(sig string) (*Func, bool) {
	f, ok := v.bySig[sig]
	return f, ok
}

// Fn returns the unique function with the given name, or an error if the
// name is absent or overloaded (equals/ite are overloaded per type; resolve
// those with FnFor).
func (v *Vocabulary) Fn(name string) (*Func, error) {
	fs := v.byName[name]
	switch len(fs) {
	case 0:
		return nil, fmt.Errorf("expr: vocabulary has no function %s", name)
	case 1:
		return fs[0], nil
	default:
		return nil, fmt.Errorf("expr: function %s is overloaded; use FnFor", name)
	}
}

// MustFn is Fn that panics; for static protocol definitions.
func (v *Vocabulary) MustFn(name string) *Func {
	f, err := v.Fn(name)
	if err != nil {
		panic(err)
	}
	return f
}

// FnFor resolves a possibly overloaded name against argument types.
func (v *Vocabulary) FnFor(name string, args ...Type) (*Func, error) {
	for _, f := range v.byName[name] {
		if len(f.Params) != len(args) {
			continue
		}
		ok := true
		for i, p := range f.Params {
			if p != args[i] {
				ok = false
				break
			}
		}
		if ok {
			return f, nil
		}
	}
	return nil, fmt.Errorf("expr: no overload of %s for %v", name, args)
}

// MustFnFor is FnFor that panics.
func (v *Vocabulary) MustFnFor(name string, args ...Type) *Func {
	f, err := v.FnFor(name, args...)
	if err != nil {
		panic(err)
	}
	return f
}

// CoherenceOptions configures CoherenceVocabulary.
type CoherenceOptions struct {
	// Enums lists the user enum types for which equals/ite overloads (and
	// literal constants, if enabled) are added.
	Enums []*EnumType
	// WithEnumConstants adds each enum literal as an arity-0 symbol.
	// Guards such as Msg.MType = READ need them.
	WithEnumConstants bool
	// WithPIDConstants adds each concrete PID C0..C(n-1) as a constant.
	// Off by default: synthesized protocol code should generalize over
	// processes rather than hard-code them.
	WithPIDConstants bool
	// WithSetLiterals adds the empty-set constant.
	WithSetLiterals bool
	// WithoutEnumIte drops the ite overloads for enum types from the
	// enumeration space. Control-state changes are expressed by snippet
	// target states rather than enum-valued updates, so protocols rarely
	// need them and the search space shrinks considerably.
	WithoutEnumIte bool
}

// CoherenceVocabulary builds the Table 1 vocabulary of the paper for the
// given universe: integer arithmetic (add, sub, inc, dec), set operations
// (setadd, setsize, setunion, setinter, setminus, setof, setcontains),
// Boolean connectives (and, or, not), comparisons (iszero, ge, gt), the
// per-type equals and ite families, and the numcaches constant, plus the
// integer constants 0 and 1 and the Boolean constants (the paper's fixed
// constant symbols; other integer constants are abbreviations, e.g.
// 2 = add(1,1)).
func CoherenceVocabulary(u *Universe, opts CoherenceOptions) *Vocabulary {
	v := NewVocabulary(
		FnAdd, FnSub, FnInc, FnDec,
		FnSetAdd, FnSetSize, FnSetUnion, FnSetInter, FnSetMinus, FnSetOf, FnSetContains,
		FnAnd, FnOr, FnNot,
		FnIsZero, FnGe, FnGt,
	)

	types := []Type{BoolType, IntType, PIDType, SetType}
	for _, e := range opts.Enums {
		types = append(types, EnumOf(e))
	}
	for _, t := range types {
		v.Add(EqualsFn(t))
		if opts.WithoutEnumIte && t.Kind == KindEnum {
			continue
		}
		v.Add(IteFn(t))
	}

	v.Add(FnNumCaches)
	v.Add(FnZero)
	v.Add(FnOne)
	v.Add(FnTrue)
	v.Add(FnFalse)
	if opts.WithSetLiterals {
		v.Add(FnEmptySet)
	}
	if opts.WithEnumConstants {
		for _, e := range opts.Enums {
			for i := range e.Values {
				v.Add(EnumLitFn(e, i))
			}
		}
	}
	if opts.WithPIDConstants {
		for p := 0; p < u.NumCaches(); p++ {
			v.Add(PIDLitFn(p))
		}
	}
	return v
}
