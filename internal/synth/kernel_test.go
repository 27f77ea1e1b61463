package synth

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"transit/internal/expr"
)

// kernelEnumerator builds an enumerator over vocabulary voc in universe u,
// with scratch sized for compose.
func kernelEnumerator(u *expr.Universe, voc *expr.Vocabulary) *enumerator {
	p := Problem{U: u, Vocab: voc, Output: expr.V("o", expr.IntType)}
	en := newEnumerator(context.Background(), newSchema(p), p, nil, Limits{}.WithDefaults(), time.Time{}, false)
	en.initFresh()
	return en
}

// checkComposeMatchesApply composes op o over every tuple of argument
// values, one coordinate per tuple (in two calls, so that a range starting
// past 0 is composed too), and compares each coordinate's bytes with
// put(f.Apply(tuple)). It returns the number of tuples.
func checkComposeMatchesApply(t *testing.T, en *enumerator, o uint16) int {
	t.Helper()
	a := &en.ops[o]
	u := en.p.U
	doms := make([][]expr.Value, len(a.params))
	n := 1
	for j, pt := range a.f.Params {
		doms[j] = expr.ValuesOf(u, pt)
		n *= len(doms[j])
	}
	rows := make([][]byte, len(a.params))
	for j, s := range a.params {
		rows[j] = make([]byte, n*en.stores[s].w)
	}
	st := &en.stores[a.ret]
	want := make([]byte, n*st.w)
	args := make([]expr.Value, len(a.params))
	for i := 0; i < n; i++ {
		rest := i
		for j := len(doms) - 1; j >= 0; j-- {
			args[j] = doms[j][rest%len(doms[j])]
			rest /= len(doms[j])
			ks := &en.stores[a.params[j]]
			ks.put(rows[j][i*ks.w:], args[j])
		}
		st.put(want[i*st.w:], a.f.Apply(u, args))
	}
	got := make([]byte, n*st.w)
	en.compose(a, got, rows, 0, n/2)
	en.compose(a, got, rows, n/2, n)
	if !bytes.Equal(got, want) {
		for i := 0; i < n; i++ {
			g, w := got[i*st.w:(i+1)*st.w], want[i*st.w:(i+1)*st.w]
			if !bytes.Equal(g, w) {
				rest := i
				for j := len(doms) - 1; j >= 0; j-- {
					args[j] = doms[j][rest%len(doms[j])]
					rest /= len(doms[j])
				}
				t.Fatalf("%s at %d caches, %d-bit Ints: %v composes to %v, Apply stores %v",
					a.f, u.NumCaches(), u.IntWidth(), args, g, w)
			}
		}
	}
	return n
}

// TestComposeKernelsMatchApply holds every byte kernel to its function's
// Apply, exhaustively: over CoherenceVocabulary with an enum and set
// literals at 1-8 caches and 2-8-bit Ints, every function of arity one or
// more must get a kernel, and compose must write the bytes put(Apply)
// writes for every argument tuple. A set function over 9 caches (two-byte
// Set fields), a function outside the vocabulary and a copy of a built-in
// symbol take the Apply path, and agree with Apply too.
func TestComposeKernelsMatchApply(t *testing.T) {
	tuples := 0
	for caches := 1; caches <= 8; caches++ {
		for width := uint(2); width <= 8; width++ {
			u, err := expr.NewUniverseWidth(caches, width)
			if err != nil {
				t.Fatal(err)
			}
			e := u.MustDeclareEnum("Phase", "idle", "busy", "done")
			voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
				Enums: []*expr.EnumType{e}, WithEnumConstants: true, WithSetLiterals: true})
			en := kernelEnumerator(u, voc)
			for i, f := range voc.Funcs() {
				if f.Arity() == 0 {
					continue
				}
				o := en.funcOp(i)
				if en.ops[o].kern.b == expr.NotBuiltin {
					t.Fatalf("%s has no kernel at %d caches, %d-bit Ints", f, caches, width)
				}
				tuples += checkComposeMatchesApply(t, en, o)
			}
		}
	}
	t.Logf("%d argument tuples through the kernels", tuples)

	// Outside the kernels' reach, compose takes the Apply path.
	u9 := expr.NewUniverse(9)
	u3, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	maxFn := &expr.Func{Name: "max", Params: []expr.Type{expr.IntType, expr.IntType}, Ret: expr.IntType,
		Apply: func(u *expr.Universe, a []expr.Value) expr.Value {
			return expr.IntVal(u, max(a[0].Int(), a[1].Int()))
		}}
	addCopy := *expr.FnAdd
	for _, c := range []struct {
		u *expr.Universe
		f *expr.Func
	}{{u9, expr.FnSetUnion}, {u9, expr.FnSetContains}, {u3, maxFn}, {u3, &addCopy}} {
		t.Run(fmt.Sprintf("%s/%d-caches", c.f.Name, c.u.NumCaches()), func(t *testing.T) {
			en := kernelEnumerator(c.u, expr.NewVocabulary(c.f))
			o := en.funcOp(0)
			if b := en.ops[o].kern.b; b != expr.NotBuiltin {
				t.Fatalf("%s has kernel %d, want the Apply path", c.f, b)
			}
			checkComposeMatchesApply(t, en, o)
		})
	}
}
