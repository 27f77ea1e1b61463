package efsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"transit/internal/expr"
)

// Symmetry reduction for replicated processes. Cache-coherence protocols
// are symmetric in cache identity: permuting the PIDs of the replicated
// instances (and every PID-valued datum — process variables, in-flight
// message fields, by-field network slots) maps reachable states to
// reachable states. The model checker exploits that by exploring one
// canonical representative per orbit, which shrinks the reachable set by
// up to |caches|! (Alur et al., "Automatic Completion of Distributed
// Protocols with Symmetry"). This file provides the group machinery: PID
// permutations, their action on states and actions, the symmetry check on
// a System, and an exact canonicalizer that finds a state's least
// encoding over all permutations by refining a partition of the PIDs
// instead of trying the permutations one by one.

// Perm is a permutation of the PID domain 0..n-1, mapping old PID p to new
// PID Perm[p]. A nil Perm acts as the identity everywhere it is accepted.
type Perm []int

// IdentityPerm returns the identity permutation on n PIDs.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsIdentity reports whether the permutation fixes every PID (nil counts).
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Apply maps one PID (identity on a nil Perm).
func (p Perm) Apply(pid int) int {
	if p == nil {
		return pid
	}
	return p[pid]
}

// Inverse returns the inverse permutation (nil for nil).
func (p Perm) Inverse() Perm {
	if p == nil {
		return nil
	}
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Compose returns p∘q: the permutation applying q first, then p. Either
// operand may be nil (identity).
func (p Perm) Compose(q Perm) Perm {
	if p == nil {
		return q
	}
	if q == nil {
		return p
	}
	out := make(Perm, len(p))
	for i := range out {
		out[i] = p[q[i]]
	}
	return out
}

// permuteValue applies a PID permutation to a value: PIDs map through the
// permutation, sets permute element-wise, everything else is fixed.
func permuteValue(v expr.Value, pi Perm) expr.Value {
	if pi == nil {
		return v
	}
	switch v.Type().Kind {
	case expr.KindPID:
		return expr.PIDVal(pi[v.PID()])
	case expr.KindSet:
		return expr.SetVal(permuteSet(v.Set(), pi))
	}
	return v
}

// permuteSet maps each member p < len(pi) of a PID set to pi[p].
func permuteSet(m uint64, pi Perm) uint64 {
	low := uint64(1)<<uint(len(pi)) - 1
	out := m &^ low
	for p := 0; p < len(pi); p++ {
		if m&(1<<uint(p)) != 0 {
			out |= 1 << uint(pi[p])
		}
	}
	return out
}

// permuteMsg value-permutes every field of a message.
func permuteMsg(m Msg, pi Perm) Msg {
	out := make(Msg, len(m))
	for i, v := range m {
		out[i] = permuteValue(v, pi)
	}
	return out
}

// Permute applies a PID permutation to a whole state: the replicated
// instance with PID q takes the (value-permuted) local state of the
// instance with PID pi⁻¹(q), singleton instances keep their slot with
// values permuted, and by-field network slots relocate the same way with
// per-slot message order preserved.
func (r *Runtime) Permute(st *State, pi Perm) *State {
	return &State{v: r.AppendPermute(make([]byte, 0, len(st.v)), st, pi)}
}

// AppendPermute appends the packed vector of Permute(st, pi) to dst; a nil
// or identity pi appends st's own vector.
func (r *Runtime) AppendPermute(dst []byte, st *State, pi Perm) []byte {
	if pi == nil || pi.IsIdentity() {
		return append(dst, st.v...)
	}
	var rbuf [slotBuf]slotRef
	return r.appendPermute(dst, st.v, r.refsFor(st.v, rbuf[:]), pi)
}

// appendPermute appends the image of the vector v, whose slots refs
// indexes, under a pi that is not the identity to dst.
func (r *Runtime) appendPermute(dst, v []byte, refs []slotRef, pi Perm) []byte {
	// The inverse lives on the stack up to the canonicalizer's PID cap.
	var ibuf [MaxSymmetryPIDs]int
	inv := Perm(ibuf[:])
	if len(pi) > len(inv) {
		inv = make(Perm, len(pi))
	}
	inv = inv[:len(pi)]
	for i, v := range pi {
		inv[v] = i
	}
	return r.appendImage(dst, v, refs, pi, inv, false)
}

// PermuteAction maps an action through a PID permutation, so that
// Apply/Permute commute: Permute(Apply(st, a), pi) equals
// Apply(Permute(st, pi), PermuteAction(a, pi)).
func (r *Runtime) PermuteAction(a Action, pi Perm) Action {
	if pi == nil || pi.IsIdentity() {
		return a
	}
	out := a
	inst := r.Insts[a.Inst]
	if inst.Def.Replicated {
		out.Inst = r.byDef[inst.Def][pi[inst.PID]]
	}
	if a.Net >= 0 {
		if r.Sys.Networks[a.Net].Route == RouteByField {
			out.Slot = pi[a.Slot]
		}
		out.Msg = permuteMsg(a.Msg, pi)
	}
	return out
}

// PIDSymmetric reports whether the system's behaviour is invariant under
// PID permutation: there is at least one replicated definition, none opted
// out via Asymmetric, and no transition expression singles out a concrete
// PID (a PID literal, a set literal other than {} and the full set, or a
// singleton's Self, which is PID 0).
// Initial values are deliberately NOT checked: an asymmetric initial state
// (e.g. a PID variable defaulting to C0) only seeds the search, it does
// not break the soundness of orbit canonicalization, which needs the
// transition relation — not the initial state — to be symmetric.
// Invariants are arbitrary Go functions and cannot be checked here; the
// model checker documents the requirement that they be PID-symmetric.
func (s *System) PIDSymmetric() error {
	if s.U.NumCaches() < 2 {
		return fmt.Errorf("efsm: %s: symmetry needs at least 2 caches", s.Name)
	}
	replicated := false
	for _, d := range s.Defs {
		if d.Replicated {
			if d.Asymmetric {
				return fmt.Errorf("efsm: process %s is declared asymmetric", d.Name)
			}
			replicated = true
		}
		for _, t := range d.Transitions {
			ctx := fmt.Sprintf("efsm: %s transition (%s, %s)", d.Name, t.From, t.Event)
			check := func(e expr.Expr, what string) error {
				return symmetricExpr(s.U, e, !d.Replicated, ctx+" "+what)
			}
			if err := check(t.Guard, "guard"); err != nil {
				return err
			}
			for _, u := range t.Updates {
				if err := check(u.Rhs, "update "+u.Var); err != nil {
					return err
				}
			}
			for _, snd := range t.Sends {
				if err := check(snd.TargetSet, "multicast target"); err != nil {
					return err
				}
				for _, f := range snd.Fields {
					if err := check(f.Rhs, "send field "+f.Field); err != nil {
						return err
					}
				}
			}
		}
	}
	if !replicated {
		return fmt.Errorf("efsm: %s has no replicated processes", s.Name)
	}
	return nil
}

// symmetricExpr scans one expression for PID-distinguishing literals:
// Const nodes and nullary function symbols (C0, C1, ... are nullary funcs
// in the vocabulary) whose value names a concrete PID or a set other than
// {} and the full set, and, with singleton set, Self.
func symmetricExpr(u *expr.Universe, e expr.Expr, singleton bool, ctx string) error {
	if e == nil {
		return nil
	}
	check := func(v expr.Value) error {
		switch v.Type().Kind {
		case expr.KindPID:
			return fmt.Errorf("%s: PID literal %s breaks symmetry", ctx, v)
		case expr.KindSet:
			if m := v.Set(); m != 0 && m != u.SetMask() {
				return fmt.Errorf("%s: set literal %s breaks symmetry", ctx, v)
			}
		}
		return nil
	}
	switch n := e.(type) {
	case *expr.Var:
		if singleton && n.Name == SelfVar {
			return fmt.Errorf("%s: a singleton's %s is PID 0 and breaks symmetry", ctx, SelfVar)
		}
	case *expr.Const:
		return check(n.Val)
	case *expr.Apply:
		if len(n.Args) == 0 {
			return check(n.Eval(u, nil))
		}
		for _, a := range n.Args {
			if err := symmetricExpr(u, a, singleton, ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxSymmetryPIDs caps the PID domain of the canonicalizer. Up to 8 PIDs
// a PID field and a Set field are each one byte wide, so the least byte
// such a field can take in an image is its least label or its least mask,
// which is what lets Canonicalize refine instead of branching. From 9
// PIDs on a Set field is two little-endian bytes, whose byte order is not
// the order of the masks.
const MaxSymmetryPIDs = 8

// factorial[k] is k!, up to the PID cap.
var factorial = [MaxSymmetryPIDs + 1]int{1, 1, 2, 6, 24, 120, 720, 5040, 40320}

// SymGroup is the full symmetric group over the PID domain of a runtime
// whose system passed PIDSymmetric. It holds the n! permutations in
// lexicographic order, so Canonicalize can return its sigma by rank
// without allocating. It is immutable and safe to share across
// goroutines; each goroutine takes its own Encoder.
type SymGroup struct {
	r     *Runtime
	perms []Perm
}

// NewSymGroup validates that the runtime's system is PID-symmetric and
// within the canonicalizer's domain cap, then precomputes the
// permutation group in lexicographic order (perms[0] is the identity).
func NewSymGroup(r *Runtime) (*SymGroup, error) {
	if err := r.Sys.PIDSymmetric(); err != nil {
		return nil, err
	}
	n := r.Sys.U.NumCaches()
	if n > MaxSymmetryPIDs {
		return nil, fmt.Errorf("efsm: %d caches exceeds the %d-PID canonicalization cap", n, MaxSymmetryPIDs)
	}
	g := &SymGroup{r: r}
	var gen func(prefix Perm, rest []int)
	gen = func(prefix Perm, rest []int) {
		if len(rest) == 0 {
			g.perms = append(g.perms, append(Perm(nil), prefix...))
			return
		}
		for i, v := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			gen(append(prefix, v), next)
		}
	}
	gen(make(Perm, 0, n), IdentityPerm(n))
	return g, nil
}

// Degree is the number of PIDs the group acts on.
func (g *SymGroup) Degree() int { return g.r.Sys.U.NumCaches() }

// Size is the group order, n!.
func (g *SymGroup) Size() int { return len(g.perms) }

// Perm returns the permutation of lexicographic rank i, as AppendCanonical
// reports sigma; Perm(0) is the identity. It belongs to the group and must
// not be modified.
func (g *SymGroup) Perm(i int) Perm { return g.perms[i] }

// Encoder returns a canonicalizer with its own scratch buffers. Encoders
// are cheap; take one per goroutine (they are not safe for concurrent
// use, the group behind them is).
func (g *SymGroup) Encoder() *CanonEncoder {
	return &CanonEncoder{g: g, n: g.Degree(), end: len(g.r.procs) + g.r.numSlots}
}

// CanonEncoder computes a state's canonical key: the lexicographically
// least Runtime.Encode image over every PID permutation. Exactness
// matters twice over: it makes the key a true orbit invariant (permuted
// runs of a whole system reach the same canonical set), and it yields the
// orbit size, since the permutations reaching the least image form a
// coset of the stabilizer, so |orbit| = n! / #minimizers.
//
// It finds the least image without trying the n! permutations one by one.
// A permutation labels each PID with its new PID. The encoder writes the
// image in byte order and keeps an ordered partition of the PIDs into
// cells of consecutive labels: every labelling that gives each cell's
// PIDs that cell's labels writes the same bytes so far, and no other
// labelling can still reach the least image. Wherever the least next byte
// picks out the labellings that reach it, the partition is refined in
// place:
//
//   - a PID field's least byte is the first label of its PID's cell, so
//     that PID takes it;
//   - a Set field's least byte puts its members on the first labels of
//     every cell, so they move to the front of each cell;
//   - the blocks a replicated definition holds in a cell read the same
//     under every labelling when none names a PID of an open cell or
//     splits one with a set (always so without PID or Set variables), so
//     the cell is stable-sorted by block;
//   - an empty by-field slot's count is the least byte a slot can begin
//     with, so PIDs with empty slots go first in their cell.
//
// Where no such rule decides, the encoder branches on which PID of the
// open cell takes its first label: for the block of a replicated
// definition with PID or Set variables, for a non-empty by-field slot, and
// for an unordered slot in which two or more records name PIDs of open
// cells (the order its records sort in then depends on the labelling).
// Children whose next block or slot is not the least among their
// siblings are dropped, and so is a path as soon as its image exceeds the
// least one found. At a leaf the image is complete and the same under all
// Π|cell|! labellings the partition still allows; the leaves that reach
// the least image count the minimizers. There are at most n! leaves, so
// no state costs more than a scan of the group, and most states reach a
// single leaf.
type CanonEncoder struct {
	g *SymGroup
	// n is the PID count and end the number of image elements: instance
	// blocks, then network slots.
	n, end int
	// v and refs are the state being canonicalized and its slot index:
	// a stepper's, or one AppendCanonical builds in rbuf.
	v          []byte
	refs, rbuf []slotRef
	// cur is the image on the current path, best the least image found,
	// and kid the least next element among a branch's children.
	cur, best, kid []byte
	// tmp holds the blocks sortCell sorts.
	tmp []byte
	// found is set once a leaf has been reached, and gen counts the times
	// best was replaced.
	found bool
	gen   int
	// minimizers counts the labellings that reach best, and rank is the
	// lexicographic rank of the least of them.
	minimizers, rank int
}

// Canonicalize returns the canonical key of st, the permutation sigma
// with Encode(Permute(st, sigma)) == key (the lexicographically first
// such permutation, so the choice is deterministic), and the orbit size
// |S_n| / |stabilizer(st)|. sigma belongs to the group and must not be
// modified.
func (e *CanonEncoder) Canonicalize(st *State) (string, Perm, int) {
	var kbuf [256]byte
	key, rank, orbit := e.AppendCanonical(kbuf[:0], st)
	return string(key), e.g.perms[rank], orbit
}

// AppendCanonical appends the canonical key of st to dst and returns it
// with sigma's lexicographic rank in the group (SymGroup.Perm gives sigma
// back) and the orbit size, as Canonicalize defines them.
func (e *CanonEncoder) AppendCanonical(dst []byte, st *State) (key []byte, rank, orbit int) {
	e.rbuf = e.g.r.refsFor(st.v, e.rbuf)
	return e.appendCanonical(dst, st.v, e.rbuf)
}

// appendCanonical is AppendCanonical for the vector v, whose slots refs
// indexes.
func (e *CanonEncoder) appendCanonical(dst, v []byte, refs []slotRef) (key []byte, rank, orbit int) {
	e.v, e.refs = v, refs
	e.cur, e.found = e.cur[:0], false
	p := canonPart{starts: 1 | 1<<e.n}
	for i := 0; i < e.n; i++ {
		p.order[i], p.at[i] = uint8(i), uint8(i)
	}
	e.search(0, p, false)
	e.v, e.refs = nil, nil
	return append(dst, e.best...), e.rank, len(e.g.perms) / e.minimizers
}

// canonPart is an ordered partition of the PIDs into cells of consecutive
// labels. order lists the PIDs by label and at inverts it; a cell holds
// the PIDs at positions [s, e) and gives them the labels s..e-1 in any
// arrangement. A PID alone in its cell has its label fixed.
type canonPart struct {
	order, at [MaxSymmetryPIDs]uint8
	// starts has bit i set where a cell starts at position i, and bit n
	// set as a sentinel.
	starts uint16
}

// start is the first position of the cell holding position i.
func (p *canonPart) start(i int) int {
	return bits.Len16(p.starts&(1<<(i+1)-1)) - 1
}

// end is the position after the cell holding position i.
func (p *canonPart) end(i int) int {
	return i + 1 + bits.TrailingZeros16(p.starts>>(i+1))
}

// fix moves the PID at position j to position s, the start of its cell,
// and makes it a cell of its own.
func (p *canonPart) fix(j, s int) {
	x, y := p.order[j], p.order[s]
	p.order[s], p.order[j] = x, y
	p.at[x], p.at[y] = uint8(s), uint8(j)
	p.starts |= 1 << (s + 1)
}

// split moves the PIDs of cell [s, e) that are in m to its front, makes
// them a cell of their own, and returns where the rest starts.
func (p *canonPart) split(s, e int, m uint64) int {
	w := s
	for j := s; j < e; j++ {
		if x := p.order[j]; m&(1<<x) != 0 {
			y := p.order[w]
			p.order[w], p.order[j] = x, y
			p.at[x], p.at[y] = uint8(w), uint8(j)
			w++
		}
	}
	if w > s && w < e {
		p.starts |= 1 << w
	}
	return w
}

// pid is a PID field's least image byte: PID x takes the first label of
// its cell.
func (p *canonPart) pid(x uint64) uint64 {
	j := int(p.at[x])
	s := p.start(j)
	p.fix(j, s)
	return uint64(s)
}

// set is a Set field's least image byte: in every cell the members take
// the first labels.
func (p *canonPart) set(m uint64, n int) uint64 {
	out := m &^ (1<<n - 1)
	for s := 0; s < n; {
		e := p.end(s)
		w := p.split(s, e, m)
		out |= (1<<(w-s) - 1) << s
		s = e
	}
	return out
}

// names returns the start of an open cell that the image of a record
// (or block) depends on, or -1 when its PID and Set fields read the same
// under every labelling p allows: each PID is alone in its cell and each
// set holds all or none of every cell.
func (p *canonPart) names(b *packedBlock, rec []byte, n int) int {
	for i := range b.perm {
		f := &b.perm[i]
		x := f.get(rec)
		if f.t.Kind == expr.KindPID {
			if s := p.start(int(p.at[x])); p.end(s)-s > 1 {
				return s
			}
			continue
		}
		for s := 0; s < n; {
			e := p.end(s)
			var in int
			for j := s; j < e; j++ {
				in += int(x >> p.order[j] & 1)
			}
			if in > 0 && in < e-s {
				return s
			}
			s = e
		}
	}
	return -1
}

// search extends the image on the current path from element at on under
// partition p. lt is set when the path's image is already less than best.
func (e *CanonEncoder) search(at int, p canonPart, lt bool) {
	for at < e.end {
		base := len(e.cur)
		next, open := e.step(at, &p)
		if open >= 0 {
			e.branch(at, p, lt, open)
			return
		}
		if e.found && !lt {
			c := bytes.Compare(e.cur[base:], e.best[base:len(e.cur)])
			if c > 0 {
				return
			}
			lt = c < 0
		}
		at = next
	}
	e.leaf(&p, lt)
}

// branch searches the children of p that give each PID of the open cell
// starting at s that cell's first label. When every child writes element
// at without branching again, only the children with the least element
// go on; otherwise each child is searched in turn.
func (e *CanonEncoder) branch(at int, p canonPart, lt bool, s int) {
	end, base := p.end(s), len(e.cur)
	var kids [MaxSymmetryPIDs]canonPart
	nk, next := 0, 0
	for j := s; j < end; j++ {
		k := p
		k.fix(j, s)
		e.cur = e.cur[:base]
		nx, open := e.step(at, &k)
		if open >= 0 {
			e.cur = e.cur[:base]
			for j := s; j < end; j++ {
				kids[j-s] = p
				kids[j-s].fix(j, s)
			}
			e.children(at, kids[:end-s], lt)
			return
		}
		c := -1
		if nk > 0 {
			c = bytes.Compare(e.cur[base:], e.kid)
		}
		switch {
		case c < 0:
			e.kid = append(e.kid[:0], e.cur[base:]...)
			kids[0], nk, next = k, 1, nx
		case c == 0:
			kids[nk] = k
			nk++
		}
	}
	e.cur = append(e.cur[:base], e.kid...)
	if e.found && !lt {
		c := bytes.Compare(e.cur[base:], e.best[base:len(e.cur)])
		if c > 0 {
			return
		}
		lt = c < 0
	}
	e.children(next, kids[:nk], lt)
}

// children searches each of kids from element at on, all below the same
// image prefix.
func (e *CanonEncoder) children(at int, kids []canonPart, lt bool) {
	base, gen := len(e.cur), e.gen
	for i := range kids {
		e.cur = e.cur[:base]
		e.search(at, kids[i], lt)
		if e.gen != gen {
			// best now runs through this prefix.
			lt, gen = false, e.gen
		}
	}
}

// leaf records a complete image: a new best, or one more set of
// labellings reaching it. The labellings p allows number Π|cell|!, and
// the least of them gives each cell's labels to its PIDs in increasing
// order.
func (e *CanonEncoder) leaf(p *canonPart, lt bool) {
	var pi [MaxSymmetryPIDs]uint8
	count := 1
	for s := 0; s < e.n; {
		end := p.end(s)
		count *= factorial[end-s]
		var m uint
		for j := s; j < end; j++ {
			m |= 1 << p.order[j]
		}
		for l := s; m != 0; l++ {
			pi[bits.TrailingZeros(m)] = uint8(l)
			m &= m - 1
		}
		s = end
	}
	rank, used := 0, uint(0)
	for i, v := range pi[:e.n] {
		rank += (int(v) - bits.OnesCount(used&(1<<v-1))) * factorial[e.n-1-i]
		used |= 1 << v
	}
	if !e.found || lt {
		e.best = append(e.best[:0], e.cur...)
		e.found = true
		e.gen++
		e.minimizers, e.rank = count, rank
		return
	}
	e.minimizers += count
	e.rank = min(e.rank, rank)
}

// step appends the image of element at (instance blocks, then network
// slots, as appendImage writes them) under p's forced refinements and
// returns the next element. When no rule decides the element it appends
// nothing and returns the start of the open cell to branch on instead.
func (e *CanonEncoder) step(at int, p *canonPart) (next, open int) {
	r := e.g.r
	if at < len(r.procs) {
		pl := r.procs[at]
		if !pl.def.Replicated {
			e.cur = e.block(e.cur, at, p)
			return at + 1, -1
		}
		q := r.Insts[at].PID
		end := p.end(q)
		if end == q+1 {
			e.cur = e.block(e.cur, r.peers[at][p.order[q]], p)
			return at + 1, -1
		}
		for j := q; j < end && len(pl.block.perm) > 0; j++ {
			if p.names(&pl.block, e.v[r.procOff[r.peers[at][p.order[j]]]:], e.n) >= 0 {
				return at, q
			}
		}
		e.sortCell(at, q, end, p)
		return at + end - q, -1
	}
	g := at - len(r.procs)
	nl := &r.nets[r.slotNet[g]]
	if nl.dest < 0 {
		return at + 1, e.slot(g, nl, p)
	}
	q := g - nl.base
	if end := p.end(q); end > q+1 {
		var empty uint64
		for j := q; j < end; j++ {
			if x := p.order[j]; e.refs[nl.base+int(x)].n == 0 {
				empty |= 1 << x
			}
		}
		if empty == 0 {
			return at, q
		}
		w := p.split(q, end, empty)
		for j := q; j < w; j++ {
			e.cur = append(e.cur, 0)
		}
		return at + w - q, -1
	}
	return at + 1, e.slot(nl.base+int(p.order[q]), nl, p)
}

// block appends the image of instance src's block to dst.
func (e *CanonEncoder) block(dst []byte, src int, p *canonPart) []byte {
	r := e.g.r
	pl, o := r.procs[src], r.procOff[src]
	start := len(dst)
	dst = append(dst, e.v[o:o+pl.block.size]...)
	e.permute(&pl.block, dst[start:], p)
	return dst
}

// permute rewrites the PID and Set fields of a block or record image in
// place, in field order, each to its least byte.
func (e *CanonEncoder) permute(b *packedBlock, rec []byte, p *canonPart) {
	for i := range b.perm {
		f := &b.perm[i]
		if f.t.Kind == expr.KindPID {
			f.put(rec, p.pid(f.get(rec)))
		} else {
			f.put(rec, p.set(f.get(rec), e.n))
		}
	}
}

// sortCell appends the blocks of the PIDs in cell [s, end) of the
// replicated definition whose PID 0 is instance at, in byte order, and
// splits the cell where neighbouring blocks differ. Every one of those
// blocks must read the same under each labelling p allows.
func (e *CanonEncoder) sortCell(at, s, end int, p *canonPart) {
	r := e.g.r
	ids, sz, k := r.peers[at], r.procs[at].block.size, end-s
	// cell holds the cell's PIDs in their current order and idx their
	// offsets in cell, insertion-sorted by block below.
	var cell, idx [MaxSymmetryPIDs]uint8
	e.tmp = e.tmp[:0]
	for i := 0; i < k; i++ {
		cell[i], idx[i] = p.order[s+i], uint8(i)
		e.tmp = e.block(e.tmp, ids[cell[i]], p)
	}
	img := func(i uint8) []byte { return e.tmp[int(i)*sz : int(i+1)*sz] }
	for i := 1; i < k; i++ {
		for j := i; j > 0 && bytes.Compare(img(idx[j-1]), img(idx[j])) > 0; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	for i, m := range idx[:k] {
		x := cell[m]
		p.order[s+i], p.at[x] = x, uint8(s+i)
		if i > 0 && !bytes.Equal(img(idx[i-1]), img(m)) {
			p.starts |= 1 << (s + i)
		}
		e.cur = append(e.cur, img(m)...)
	}
}

// slot appends the image of global slot src's records on network nl: the
// count, then each record with its fields at their least bytes, sorted on
// unordered networks. If two or more records of an unordered slot name
// open cells, it appends nothing and returns the start of one of them:
// which record sorts first then depends on how that cell is labelled.
// With one such record, making it least makes the sorted slot least.
func (e *CanonEncoder) slot(src int, nl *netLayout, p *canonPart) int {
	ref, sz := e.refs[src], nl.rec.size
	recs := e.v[ref.off : ref.off+ref.n*sz]
	sorted := !nl.ordered && ref.n > 1
	if sorted && len(nl.rec.perm) > 0 {
		open, named := -1, 0
		for o := 0; o < len(recs) && named < 2; o += sz {
			if c := p.names(&nl.rec, recs[o:o+sz], e.n); c >= 0 {
				open = c
				named++
			}
		}
		if named > 1 {
			return open
		}
	}
	e.cur = binary.AppendUvarint(e.cur, uint64(ref.n))
	start := len(e.cur)
	e.cur = append(e.cur, recs...)
	if len(nl.rec.perm) > 0 {
		for o := start; o < len(e.cur); o += sz {
			e.permute(&nl.rec, e.cur[o:], p)
		}
	}
	if sorted {
		sortRecords(e.cur[start:], ref.n, sz)
	}
	return -1
}
