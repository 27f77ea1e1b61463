package synth

import (
	"math/bits"

	"transit/internal/expr"
)

// Composing a candidate's signature is the enumerator's unit cost: one
// coordinate per concretization (and per shadow probe) for every
// candidate. A built-in op whose parameter and result fields are all one
// byte composes on the stored codes themselves, one byte formula per
// coordinate, with no expr.Value in between: that covers every function of
// expr.CoherenceVocabulary up to 8 caches and 8-bit Ints. Every other op —
// a wider field, a function outside the vocabulary — decodes its
// arguments, calls Func.Apply and encodes the result. Both paths write the
// same bytes (TestComposeKernelsMatchApply).

// kernel is an op's byte formula. b names the built-in it computes;
// expr.NotBuiltin means the op has no kernel. half and mask are the Int
// field's offset and its domain size minus one: an Int x is stored as
// x+half, so sums and differences re-centre by half and wrap by mask.
type kernel struct {
	b          expr.Builtin
	half, mask byte
}

// kernelOf returns function op o's kernel over the schema's fields: none
// unless o's function is a built-in (so of arity one or more) whose result
// and parameter fields are all one byte.
func kernelOf(u *expr.Universe, o *op, fields []field) kernel {
	b := expr.BuiltinOf(o.f)
	if b == expr.NotBuiltin || fields[o.ret].w != 1 {
		return kernel{}
	}
	for _, s := range o.params {
		if fields[s].w != 1 {
			return kernel{}
		}
	}
	n := u.DomainSize(expr.IntType)
	return kernel{b: b, half: byte(n / 2), mask: byte(n - 1)}
}

// compose writes coordinates [lo, hi) of a's row into dst, from the same
// coordinates of its children's rows kids: through a's kernel when it has
// one, otherwise one Apply per coordinate.
func (en *enumerator) compose(a *op, dst []byte, kids [][]byte, lo, hi int) {
	if a.kern.b != expr.NotBuiltin {
		a.kern.run(dst[lo:hi], kids, lo, hi)
		return
	}
	st := &en.stores[a.ret]
	argv := en.argBuf[:len(kids)]
	for c := lo; c < hi; c++ {
		for j, kr := range kids {
			ks := &en.stores[a.params[j]]
			argv[j] = ks.get(kr[c*ks.w:])
		}
		st.put(dst[c*st.w:], a.f.Apply(en.p.U, argv))
	}
}

// run writes d[i] = k(kids[0][lo+i], ...) for every i of d, len(d) being
// hi-lo. Booleans are stored as 0 and 1, a Set over at most 8 caches as its
// mask and a PID as its index, so the logical and set operations are bit
// operations on the codes; Int comparisons compare the offset codes, which
// keep the values' order.
func (k kernel) run(d []byte, kids [][]byte, lo, hi int) {
	x := kids[0][lo:hi]
	x = x[:len(d)]
	switch k.b {
	case expr.BuiltinInc:
		for i := range d {
			d[i] = (x[i] + 1) & k.mask
		}
		return
	case expr.BuiltinDec:
		for i := range d {
			d[i] = (x[i] - 1) & k.mask
		}
		return
	case expr.BuiltinSetSize:
		for i := range d {
			d[i] = (byte(bits.OnesCount8(x[i])) + k.half) & k.mask
		}
		return
	case expr.BuiltinSetOf:
		for i := range d {
			d[i] = 1 << x[i]
		}
		return
	case expr.BuiltinNot:
		for i := range d {
			d[i] = x[i] ^ 1
		}
		return
	case expr.BuiltinIsZero:
		for i := range d {
			d[i] = b2b(x[i] == k.half)
		}
		return
	}
	y := kids[1][lo:hi]
	y = y[:len(d)]
	switch k.b {
	case expr.BuiltinAdd:
		for i := range d {
			d[i] = (x[i] + y[i] - k.half) & k.mask
		}
	case expr.BuiltinSub:
		for i := range d {
			d[i] = (x[i] - y[i] + k.half) & k.mask
		}
	case expr.BuiltinSetAdd:
		for i := range d {
			d[i] = x[i] | 1<<y[i]
		}
	case expr.BuiltinSetUnion, expr.BuiltinOr:
		for i := range d {
			d[i] = x[i] | y[i]
		}
	case expr.BuiltinSetInter, expr.BuiltinAnd:
		for i := range d {
			d[i] = x[i] & y[i]
		}
	case expr.BuiltinSetMinus:
		for i := range d {
			d[i] = x[i] &^ y[i]
		}
	case expr.BuiltinSetContains:
		for i := range d {
			d[i] = x[i] >> y[i] & 1
		}
	case expr.BuiltinGe:
		for i := range d {
			d[i] = b2b(x[i] >= y[i])
		}
	case expr.BuiltinGt:
		for i := range d {
			d[i] = b2b(x[i] > y[i])
		}
	case expr.BuiltinEquals:
		for i := range d {
			d[i] = b2b(x[i] == y[i])
		}
	case expr.BuiltinIte:
		// A select without a branch: -c is all ones when c is 1.
		z := kids[2][lo:hi]
		z = z[:len(d)]
		for i := range d {
			d[i] = z[i] ^ (y[i]^z[i])&-x[i]
		}
	}
}

// b2b is a comparison's stored Bool.
func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}
