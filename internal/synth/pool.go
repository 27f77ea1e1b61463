package synth

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"

	"transit/internal/expr"
	"transit/internal/hashidx"
)

// The enumerator's pools hold no pointers, no []expr.Value and no strings.
// Every entry — a retained class representative, a shadow, an alt — lives
// in the store of its type: a function index (op), its children's ranks in
// their own types' stores, and one row of packed signature fields in the
// store's byte arena. A store's index finds a representative by its row's
// key bytes. An expression is built only for a candidate that leaves the
// enumerator (DESIGN.md §10).

// field is the packed layout of one type's signature coordinates: a value
// is its code in w little-endian bytes, w the least of 1, 2, 4 and 8 that
// holds the type's domain in the problem's universe. Bool, PID, enums of
// up to 256 values, Ints of up to 8 bits and Sets over up to 8 caches take
// one byte. The code is expr.Value.Code, except that an Int is stored
// offset by half its domain, so every stored code lies in [0, domain).
type field struct {
	t expr.Type
	w int
	// half is 2^(W-1) for W-bit Ints, 0 otherwise.
	half uint64
}

func newField(u *expr.Universe, t expr.Type) field {
	f := field{t: t}
	n := u.DomainSize(t)
	if t.Kind == expr.KindInt {
		f.half = n / 2
	}
	f.w = 1
	for f.w < 8 && n-1 > 1<<(8*f.w)-1 {
		f.w *= 2
	}
	return f
}

// put writes v into dst[:f.w].
func (f *field) put(dst []byte, v expr.Value) {
	c := v.Code() + f.half
	switch f.w {
	case 1:
		dst[0] = byte(c)
	case 2:
		binary.LittleEndian.PutUint16(dst, uint16(c))
	case 4:
		binary.LittleEndian.PutUint32(dst, uint32(c))
	default:
		binary.LittleEndian.PutUint64(dst, c)
	}
}

// get reads the value in src[:f.w].
func (f *field) get(src []byte) expr.Value {
	var c uint64
	switch f.w {
	case 1:
		c = uint64(src[0])
	case 2:
		c = uint64(binary.LittleEndian.Uint16(src))
	case 4:
		c = uint64(binary.LittleEndian.Uint32(src))
	default:
		c = binary.LittleEndian.Uint64(src)
	}
	return expr.FromCode(f.t, c-f.half)
}

// op is one function the enumerator composes: an input variable or a
// vocabulary function. Ops are numbered variables first, in declaration
// order, then functions in vocabulary order.
type op struct {
	f *expr.Func // nil for a variable
	// atom is the op's expression when it takes no arguments (a variable
	// or an arity-0 function): size-1 candidates are evaluated from it.
	atom expr.Expr
	// ret and params are the stores of the result and parameter types.
	ret    int
	params []int
	// kern composes the op's coordinates on packed bytes (kernel.go).
	kern kernel
}

// store holds the entries of one type. Entry r (its rank) has op op[r],
// children kids[kidAt[r]:kidAt[r+1]] (ranks in the stores of the op's
// parameter types) and row rows[r*stride:(r+1)*stride]. A row is one field
// per coordinate, laid out [shadow probes..., probes..., examples...]; its
// key, the bytes pruning compares, is everything after the shadow probes.
// Example coordinates come last, so a new concretization appends to every
// row. The shadow-probe fields of an entry above shadowTrackMaxSize hold
// stale bytes and are never read.
type store struct {
	field
	stride int
	op     []uint16
	kidAt  []uint32
	kids   []uint32
	rows   []byte
	// seen finds a retained representative by its key; full finds a
	// tracked representative or a shadow by its whole row (DESIGN.md §15).
	seen hashidx.Index
	full hashidx.Index
}

// len is the number of entries stored.
func (s *store) len() int { return len(s.op) }

// row returns entry r's row.
func (s *store) row(r uint32) []byte {
	o := int(r) * s.stride
	return s.rows[o : o+s.stride]
}

// kidsOf returns entry r's children.
func (s *store) kidsOf(r uint32) []uint32 {
	return s.kids[s.kidAt[r]:s.kidAt[r+1]]
}

// add appends an entry and returns its rank.
func (s *store) add(o uint16, kids []uint32, row []byte) uint32 {
	r := uint32(len(s.op))
	s.op = append(s.op, o)
	s.kids = append(s.kids, kids...)
	s.kidAt = append(s.kidAt, uint32(len(s.kids)))
	s.rows = append(s.rows, row...)
	return r
}

// find returns the entry of idx whose bytes rows[r*stride+from:][:len(b)]
// equal b, whose hash is h.
func (s *store) find(idx *hashidx.Index, h uint32, from int, b []byte) (uint32, bool) {
	return idx.Find(h, func(r uint32) bool {
		o := int(r)*s.stride + from
		return bytes.Equal(s.rows[o:o+len(b)], b)
	})
}

// ref names an entry by its store and rank.
type ref struct {
	s int
	r uint32
}

// hashSeed seeds every store's index hash. The hash only places entries
// in an index, never orders them, so a process-wide seed is enough.
var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint32 { return uint32(maphash.Bytes(hashSeed, b)) }

// schema is what the pools' layout takes from the problem alone: its ops,
// one field per type (the types numbered in first-seen order over the
// variables, the functions and the output), and the output's store. A
// solve call builds it once and every enumerator of the call shares it.
type schema struct {
	ops    []op
	fields []field
	out    int
}

// newSchema builds the ops in one slice and their params in one shared
// array, and gives every op whose fields are all one byte its kernel. A
// problem has a handful of types, so a type's store is found by scanning
// the fields built so far.
func newSchema(p Problem) *schema {
	funcs := p.Vocab.Funcs()
	nparams := 0
	for _, f := range funcs {
		nparams += f.Arity()
	}
	sc := &schema{ops: make([]op, 0, len(p.Vars)+len(funcs))}
	params := make([]int, 0, nparams)
	storeOf := func(t expr.Type) int {
		for i := range sc.fields {
			if sc.fields[i].t == t {
				return i
			}
		}
		sc.fields = append(sc.fields, newField(p.U, t))
		return len(sc.fields) - 1
	}
	for _, v := range p.Vars {
		sc.ops = append(sc.ops, op{atom: v, ret: storeOf(v.VT)})
	}
	for _, f := range funcs {
		o := op{f: f, ret: storeOf(f.Ret)}
		if f.Arity() == 0 {
			o.atom = expr.NewApply(f)
		}
		at := len(params)
		for _, t := range f.Params {
			params = append(params, storeOf(t))
		}
		o.params = params[at:len(params):len(params)]
		o.kern = kernelOf(p.U, &o, sc.fields)
		sc.ops = append(sc.ops, o)
	}
	sc.out = storeOf(p.Output.VT)
	return sc
}

// newStores returns one empty store per type of the schema.
func (sc *schema) newStores() []store {
	stores := make([]store, len(sc.fields))
	for i := range stores {
		stores[i] = store{field: sc.fields[i], kidAt: []uint32{0}}
	}
	return stores
}

// funcOp is the op number of the i-th vocabulary function.
func (en *enumerator) funcOp(i int) uint16 { return uint16(len(en.p.Vars) + i) }

// materialize builds the expression of entry r of store s.
func (en *enumerator) materialize(s int, r uint32) expr.Expr {
	st := &en.stores[s]
	o := &en.ops[st.op[r]]
	if o.atom != nil {
		return o.atom
	}
	kids := st.kidsOf(r)
	args := make([]expr.Expr, len(kids))
	for j, k := range kids {
		args[j] = en.materialize(o.params[j], k)
	}
	return expr.NewApply(o.f, args...)
}

// exprSize is the expression size of entry r of store s.
func (en *enumerator) exprSize(s int, r uint32) int {
	st := &en.stores[s]
	o := &en.ops[st.op[r]]
	n := 1
	for j, k := range st.kidsOf(r) {
		n += en.exprSize(o.params[j], k)
	}
	return n
}
