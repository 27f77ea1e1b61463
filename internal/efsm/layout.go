package efsm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"transit/internal/expr"
)

// Packed states. NewRuntime fixes one byte layout per system, and a State
// is a single byte vector in that layout:
//
//   - one block per instance, in instance order: the control ordinal, then
//     each process variable;
//   - one slot per (network, receiver slot), in network then slot order:
//     the pending-message count as a uvarint, then that many fixed-width
//     records in arrival order, one field after another.
//
// Every field is little-endian and exactly as wide as its domain needs:
// control and enum fields from their value counts, Int from the
// universe's width, PID from the cache count, Set from the cache count,
// Bool one byte. Payloads are those of expr.Value (Int sign-extended,
// Set a bitmask, enums and control states ordinals), so a field's bytes
// are the first bytes of the 8-byte little-endian payload the string
// encoding used to write after a tag and an enum id. Two keys that agree
// up to a field hold the same type there, so comparing the narrow field
// orders them as the wide record did; the count sorts as the single count
// byte did below 256 and stays injective above it. Keys therefore sort
// as before, and so do frontiers, predecessor choices and traces.

// field is one fixed-width little-endian field of an instance block or a
// message record.
type field struct {
	off, w int
	t      expr.Type
	// shift is 64 minus the integer width for Int fields and 0 otherwise,
	// so get sign-extends Ints and reads other payloads unchanged.
	shift uint
}

func (f *field) get(b []byte) uint64 {
	var x uint64
	for i := f.off + f.w - 1; i >= f.off; i-- {
		x = x<<8 | uint64(b[i])
	}
	return uint64(int64(x<<f.shift) >> f.shift)
}

func (f *field) put(b []byte, x uint64) {
	for i := f.off; i < f.off+f.w; i++ {
		b[i] = byte(x)
		x >>= 8
	}
}

// permute remaps a PID or Set field of b through pi; other fields are
// left alone.
func (f *field) permute(b []byte, pi Perm) {
	switch f.t.Kind {
	case expr.KindPID:
		f.put(b, uint64(pi[f.get(b)]))
	case expr.KindSet:
		f.put(b, permuteSet(f.get(b), pi))
	}
}

// widthOf is the number of bytes that hold every payload up to max.
func widthOf(max uint64) int {
	w := 1
	for max >>= 8; max > 0; max >>= 8 {
		w++
	}
	return w
}

// newField lays out a field of type t at off.
func newField(u *expr.Universe, t expr.Type, off int) field {
	f := field{off: off, t: t}
	switch t.Kind {
	case expr.KindBool:
		f.w = 1
	case expr.KindInt:
		f.w = widthOf(uint64(1)<<u.IntWidth() - 1)
		f.shift = 64 - u.IntWidth()
	case expr.KindPID:
		f.w = widthOf(uint64(u.NumCaches() - 1))
	case expr.KindSet:
		f.w = widthOf(u.SetMask())
	case expr.KindEnum:
		f.w = widthOf(uint64(len(t.Enum.Values) - 1))
	}
	return f
}

// packedBlock is the layout of a run of typed fields: an instance block
// (preceded by its control field) or a message record.
type packedBlock struct {
	fields []field
	// perm lists the PID- and Set-typed fields, the ones a PID
	// permutation rewrites.
	perm []field
	size int
}

func newBlock(u *expr.Universe, off int, types []expr.Type) packedBlock {
	b := packedBlock{size: off}
	for _, t := range types {
		f := newField(u, t, b.size)
		b.fields = append(b.fields, f)
		if t.Kind == expr.KindPID || t.Kind == expr.KindSet {
			b.perm = append(b.perm, f)
		}
		b.size += f.w
	}
	return b
}

func (b *packedBlock) permute(rec []byte, pi Perm) {
	for i := range b.perm {
		b.perm[i].permute(rec, pi)
	}
}

// payload is the packed form of a value.
func payload(v expr.Value) uint64 {
	switch v.Type().Kind {
	case expr.KindBool:
		if v.Bool() {
			return 1
		}
		return 0
	case expr.KindInt:
		return uint64(v.Int())
	case expr.KindPID:
		return uint64(v.PID())
	case expr.KindSet:
		return v.Set()
	case expr.KindEnum:
		return uint64(v.EnumOrd())
	}
	panic(fmt.Sprintf("efsm: no payload for %s value", v.Type()))
}

// valueOf is the value of type t a payload stands for.
func valueOf(u *expr.Universe, t expr.Type, x uint64) expr.Value {
	switch t.Kind {
	case expr.KindBool:
		return expr.BoolVal(x != 0)
	case expr.KindInt:
		return expr.IntVal(u, int64(x))
	case expr.KindPID:
		return expr.PIDVal(int(x))
	case expr.KindSet:
		return expr.SetVal(x)
	case expr.KindEnum:
		return expr.EnumVal(t.Enum, int(x))
	}
	panic(fmt.Sprintf("efsm: no value of type %s", t))
}

// slotRef locates the records of one receiver slot in a packed vector.
type slotRef struct{ off, n int }

// countOff is the offset of the slot's count. Every writer emits minimal
// uvarint counts, so the count's width follows from n.
func (s slotRef) countOff() int {
	o := s.off - 1
	for x := uint64(s.n); x >= 0x80; x >>= 7 {
		o-- // a multi-byte count
	}
	return o
}

// index fills refs, one per slot in global slot order, from v.
func (r *Runtime) index(v []byte, refs []slotRef) {
	off, g := r.netsOff, 0
	for i := range r.nets {
		nl := &r.nets[i]
		for s := 0; s < nl.slots; s++ {
			c, k := binary.Uvarint(v[off:])
			off += k
			refs[g] = slotRef{off, int(c)}
			off += int(c) * nl.rec.size
			g++
		}
	}
}

// refsFor returns r.numSlots slot refs for v, in buf when it is large
// enough.
func (r *Runtime) refsFor(v []byte, buf []slotRef) []slotRef {
	if len(buf) < r.numSlots {
		buf = make([]slotRef, r.numSlots)
	}
	refs := buf[:r.numSlots]
	r.index(v, refs)
	return refs
}

// appendImage appends the packed image of the vector v (indexed by refs)
// under the PID permutation pi with inverse inv, or unpermuted when pi is
// nil: replicated instance q takes the value-permuted block of instance
// inv[q], by-field slot q the value-permuted records of slot inv[q].
// With sorted set, every unordered slot's records are sorted, which makes
// the image a state key. Encode and Permute write through it.
func (r *Runtime) appendImage(dst, v []byte, refs []slotRef, pi, inv Perm, sorted bool) []byte {
	if pi == nil {
		// Every writer emits minimal counts, so the unpermuted image is v
		// itself up to the order of its unordered slots' records.
		start := len(dst)
		dst = append(dst, v...)
		for i := range r.nets {
			nl := &r.nets[i]
			if !sorted || nl.ordered {
				continue
			}
			for g := nl.base; g < nl.base+nl.slots; g++ {
				if ref := refs[g]; ref.n > 1 {
					sortRecords(dst[start+ref.off:], ref.n, nl.rec.size)
				}
			}
		}
		return dst
	}
	for i, pl := range r.procs {
		src := i
		if pl.def.Replicated {
			src = r.peers[i][inv[r.Insts[i].PID]]
		}
		start, o := len(dst), r.procOff[src]
		dst = append(dst, v[o:o+pl.block.size]...)
		pl.block.permute(dst[start:], pi)
	}
	for i := range r.nets {
		nl := &r.nets[i]
		for q := 0; q < nl.slots; q++ {
			src := q
			if nl.dest >= 0 {
				src = inv[q]
			}
			ref := refs[nl.base+src]
			dst = binary.AppendUvarint(dst, uint64(ref.n))
			start, sz := len(dst), nl.rec.size
			dst = append(dst, v[ref.off:ref.off+ref.n*sz]...)
			if len(nl.rec.perm) > 0 {
				for o := start; o < len(dst); o += sz {
					nl.rec.permute(dst[o:], pi)
				}
			}
			if sorted && !nl.ordered && ref.n > 1 {
				sortRecords(dst[start:], ref.n, sz)
			}
		}
	}
	return dst
}

// sortRecords insertion-sorts the n records of size sz at the start of b.
// Pending slots hold a handful of messages, where insertion sort beats a
// general sort and needs no allocation.
func sortRecords(b []byte, n, sz int) {
	var buf [64]byte
	tmp := buf[:]
	if sz > len(buf) {
		tmp = make([]byte, sz)
	}
	tmp = tmp[:sz]
	for i := 1; i < n; i++ {
		rec := b[i*sz : (i+1)*sz]
		j := i
		for j > 0 && bytes.Compare(b[(j-1)*sz:j*sz], rec) > 0 {
			j--
		}
		if j == i {
			continue
		}
		copy(tmp, rec)
		copy(b[(j+1)*sz:(i+1)*sz], b[j*sz:i*sz])
		copy(b[j*sz:], tmp)
	}
}
