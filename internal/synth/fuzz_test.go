package synth

import (
	"bytes"
	"fmt"
	"testing"

	"transit/internal/expr"
)

// sigKeyCase is one decoded (type, value-vector) pair for the injectivity
// fuzz target: a signature, every value of the expression's type, built
// canonically so that semantic equality of two cases is exactly Go
// equality of their components.
type sigKeyCase struct {
	t   expr.Type
	sig []expr.Value
}

func (c sigKeyCase) equal(o sigKeyCase) bool {
	if c.t != o.t || len(c.sig) != len(o.sig) {
		return false
	}
	for i := range c.sig {
		if c.sig[i] != o.sig[i] {
			return false
		}
	}
	return true
}

// fuzzBytes hands out the fuzzer's bytes, then zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

func (d *fuzzBytes) next64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(d.next()) << (8 * uint(i))
	}
	return x
}

// fuzzUniverse draws a universe of 1-64 caches and 2-32-bit Ints with two
// enums, one of 1-256 values and one of 1-511, so every field width the
// layout has is reachable.
func fuzzUniverse(t *testing.T, d *fuzzBytes) (*expr.Universe, []*expr.EnumType) {
	u, err := expr.NewUniverseWidth(1+int(d.next())%64, 2+uint(d.next())%31)
	if err != nil {
		t.Fatal(err)
	}
	var enums []*expr.EnumType
	for i, n := range []int{1 + int(d.next()), 1 + int(d.next())<<1 | int(d.next()&1)} {
		vals := make([]string, n)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%d", j)
		}
		e, err := u.DeclareEnum(fmt.Sprintf("fuzzEnum%d", i), vals...)
		if err != nil {
			t.Fatal(err)
		}
		enums = append(enums, e)
	}
	return u, enums
}

// decodeSigKeyCase consumes bytes from d and builds one canonical case
// over the given universe and enums. Every byte pattern maps to a valid
// case, so the fuzzer explores the full space.
func decodeSigKeyCase(u *expr.Universe, enums []*expr.EnumType, d *fuzzBytes) sigKeyCase {
	types := []expr.Type{expr.BoolType, expr.IntType, expr.PIDType, expr.SetType,
		expr.EnumOf(enums[0]), expr.EnumOf(enums[1])}
	c := sigKeyCase{t: types[int(d.next())%len(types)]}
	n := int(d.next()) % 6
	for i := 0; i < n; i++ {
		raw := d.next64()
		var v expr.Value
		switch c.t.Kind {
		case expr.KindBool:
			v = expr.BoolVal(raw&1 == 1)
		case expr.KindInt:
			v = expr.IntVal(u, int64(raw))
		case expr.KindPID:
			v = expr.PIDVal(int(raw % uint64(u.NumCaches())))
		case expr.KindSet:
			v = expr.SetVal(raw & u.SetMask())
		default:
			v = expr.EnumVal(c.t.Enum, int(raw%uint64(len(c.t.Enum.Values))))
		}
		c.sig = append(c.sig, v)
	}
	return c
}

// packSig packs a signature the way a store lays out a row's key.
func packSig(dst []byte, f *field, sig []expr.Value) []byte {
	dst = append(dst[:0], make([]byte, f.w*len(sig))...)
	for i, v := range sig {
		f.put(dst[i*f.w:], v)
	}
	return dst
}

// FuzzSigKeyInjective fuzzes the packed signature layout the enumerator's
// pruning indexes depend on: two signatures must pack to equal keys in
// equal stores (equal types) exactly when they are semantically equal, and
// every field must read back as the value written. A collision between
// distinct pairs would silently fuse two distinguishable candidate
// classes.
func FuzzSigKeyInjective(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 0, 0, 1, 2, 1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 4, 9})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		u, enums := fuzzUniverse(t, &d)
		a := decodeSigKeyCase(u, enums, &d)
		b := decodeSigKeyCase(u, enums, &d)
		fa, fb := newField(u, a.t), newField(u, b.t)
		ka := packSig(nil, &fa, a.sig)
		kb := packSig(nil, &fb, b.sig)
		if got, want := a.t == b.t && bytes.Equal(ka, kb), a.equal(b); got != want {
			t.Fatalf("key equality %v, semantic equality %v\na: %v %v\nb: %v %v\nka: %x\nkb: %x",
				got, want, a.t, a.sig, b.t, b.sig, ka, kb)
		}
		for i, v := range a.sig {
			if got := fa.get(ka[i*fa.w:]); got != v {
				t.Fatalf("field %d of %v reads back %v, wrote %v (width %d)", i, a.t, got, v, fa.w)
			}
		}
		// The key must also be deterministic: packing the same case again,
		// over b's bytes, gives a's key.
		want := append([]byte(nil), ka...)
		if again := packSig(kb, &fa, a.sig); !bytes.Equal(again, want) {
			t.Fatalf("re-encoding differs: %x vs %x", again, want)
		}
	})
}
