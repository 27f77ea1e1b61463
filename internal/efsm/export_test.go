package efsm

import (
	"encoding/binary"
	"slices"
)

// SymSystem exposes the symmetric token system to the external tests.
var SymSystem = symSystem

// Vector returns st's packed vector.
func Vector(st *State) []byte { return st.v }

// IndexMatches reports whether the slot index x's last Apply wrote equals
// a fresh index of st, a copy of that successor.
func IndexMatches(x *Stepper, st *State) bool {
	return slices.Equal(x.next, x.r.refsFor(st.v, nil))
}

// RefApply and RefEncode are reference writers the external tests hold
// Stepper.Apply and AppendEncode to. They write every block and slot one
// at a time and copy no run of slots or vector whole, so they share no
// shortcut with the writers under test.

// RefApply appends the packed vector of Apply(st, a) to dst. It finds a's
// compiled transition by a scan of its definition's, not through a.
func RefApply(r *Runtime, dst []byte, st *State, a Action) []byte {
	v := st.v
	pl := r.procs[a.Inst]
	ct := compiledOf(pl, a.Trans)
	var sbuf [scopeBuf]uint64
	var rbuf [slotBuf]slotRef
	s := r.scope(sbuf[:])
	refs := r.refsFor(v, rbuf[:])
	msgScope := r.load(s, v, a.Inst)
	consumed := -1
	if a.Net >= 0 {
		nl := &r.nets[a.Net]
		consumed = nl.base + a.Slot
		loadRecord(msgScope, &nl.rec, v[refs[consumed].off+a.Pos*nl.rec.size:])
	}

	// Parallel assignment and sends both read the pre-state scope.
	var ubuf [16]uint64
	vals := ubuf[:0]
	for _, up := range ct.updates {
		vals = append(vals, up.rhs.eval(s))
	}
	var obuf [128]byte
	var pbuf [16]sent
	out, pend := obuf[:0], pbuf[:0]
	for _, cs := range ct.sends {
		nl := &r.nets[cs.net]
		sz := nl.rec.size
		start := len(out)
		out = append(out, make([]byte, sz)...)
		for _, f := range cs.fields {
			nl.rec.fields[f.idx].put(out[start:], f.rhs.eval(s))
		}
		if cs.target == nil {
			slot := 0
			if nl.dest >= 0 {
				slot = int(nl.rec.fields[nl.dest].get(out[start:]))
			}
			pend = append(pend, sent{nl.base + slot, start})
			continue
		}
		// Multicast: one copy of the record per member, routed to it.
		mask := cs.target.eval(s)
		for pid := 0; pid < nl.slots; pid++ {
			if mask&(1<<uint(pid)) == 0 {
				continue
			}
			at := len(out)
			out = append(out, out[start:start+sz]...)
			nl.rec.fields[nl.dest].put(out[at:], uint64(pid))
			pend = append(pend, sent{nl.base + pid, at})
		}
	}

	next := slices.Grow(dst, len(v)+len(out))
	base := len(next)
	next = append(next, v[:r.netsOff]...)
	blk := next[base+r.procOff[a.Inst]:]
	pl.ctl.put(blk, uint64(ct.to))
	for k, up := range ct.updates {
		pl.block.fields[up.v].put(blk, vals[k])
	}
	for n := range r.nets {
		nl := &r.nets[n]
		sz := nl.rec.size
		for g := nl.base; g < nl.base+nl.slots; g++ {
			ref := refs[g]
			recs := v[ref.off : ref.off+ref.n*sz]
			c := ref.n
			for _, p := range pend {
				if p.g == g {
					c++
				}
			}
			if g == consumed {
				next = binary.AppendUvarint(next, uint64(c-1))
				next = append(next, recs[:a.Pos*sz]...)
				next = append(next, recs[(a.Pos+1)*sz:]...)
			} else {
				next = binary.AppendUvarint(next, uint64(c))
				next = append(next, recs...)
			}
			for _, p := range pend {
				if p.g == g {
					next = append(next, out[p.off:p.off+sz]...)
				}
			}
		}
	}
	return next
}

// compiledOf finds t among its definition's compiled transitions.
func compiledOf(pl *procLayout, t *Transition) *ctrans {
	for _, byEvent := range [][][][]*ctrans{pl.trig, pl.recv} {
		for _, cands := range byEvent {
			for _, cs := range cands {
				for _, ct := range cs {
					if ct.t == t {
						return ct
					}
				}
			}
		}
	}
	panic("efsm: transition not compiled")
}

// RefEncode appends the key Encode returns for st to dst.
func RefEncode(r *Runtime, dst []byte, st *State) []byte {
	return refImage(r, dst, st.v, r.refsFor(st.v, nil), nil, nil, true)
}

// refImage appends the packed image of the vector v (indexed by refs)
// under the PID permutation pi with inverse inv, or unpermuted when pi is
// nil: replicated instance q takes the value-permuted block of instance
// inv[q], by-field slot q the value-permuted records of slot inv[q].
// With sorted set, every unordered slot's records are sorted, which makes
// the image a state key.
func refImage(r *Runtime, dst, v []byte, refs []slotRef, pi, inv Perm, sorted bool) []byte {
	for i, pl := range r.procs {
		src := i
		if pi != nil && pl.def.Replicated {
			src = r.peers[i][inv[r.Insts[i].PID]]
		}
		start, o := len(dst), r.procOff[src]
		dst = append(dst, v[o:o+pl.block.size]...)
		if pi != nil {
			pl.block.permute(dst[start:], pi)
		}
	}
	for i := range r.nets {
		nl := &r.nets[i]
		for q := 0; q < nl.slots; q++ {
			src := q
			if pi != nil && nl.dest >= 0 {
				src = inv[q]
			}
			ref := refs[nl.base+src]
			dst = binary.AppendUvarint(dst, uint64(ref.n))
			start, sz := len(dst), nl.rec.size
			dst = append(dst, v[ref.off:ref.off+ref.n*sz]...)
			if pi != nil && len(nl.rec.perm) > 0 {
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
