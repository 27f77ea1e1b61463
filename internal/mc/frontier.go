package mc

import (
	"bytes"
	"container/heap"
	"context"
	"slices"

	"transit/internal/efsm"
	"transit/internal/hashidx"
)

// The search runs in depth-synchronized rounds over one visited table (see
// table.go). Each round expands the whole depth-d frontier, split across
// workers by stride; each worker keeps the successors neither the table
// nor the worker has seen, sorted by key. The round then merges the
// workers' runs into the depth-(d+1) frontier, checks invariants on it,
// split by stride again, and stores and counts its states sequentially.
// Barriers separate the phases, so while the workers expand, the table is
// only read, and only the count writes it.
//
// Nothing the search keeps per state holds a pointer. A state is its id
// in the table. Only the current and next frontiers' representative
// vectors are kept, in one byte arena per frontier, and each worker writes
// its candidates' keys and representatives into its own arena.
//
// Determinism is by construction, independent of worker count:
//   - Ids are handed out in key order within a depth, so the frontier is
//     in key order, and "least frontier index" (the tie-break for
//     semantics problems and deadlocks found at the same depth) means
//     "least canonical key".
//   - The candidate least in (key, parent id, action index) wins each new
//     key. Parent ids follow parent keys, so when several depth-d parents
//     reach the same new state, the recorded predecessor is the one with
//     the least key, and every counterexample trace is reproducible run to
//     run.
//   - States are counted, and the MaxStates budget charged, in one
//     sequential sweep over the key-sorted new states, so the budget cuts
//     at exactly the same state no matter how many workers expanded.

// frontier is one depth's representatives in key order: entry i's packed
// vector is buf[off[i]:off[i+1]]. A representative is the state the search
// reached, permuted by the sigma that canonicalizes it, so its bytes are
// its key's up to the order of its unordered slots.
type frontier struct {
	buf []byte
	off []int
}

func (f *frontier) reset() {
	f.buf, f.off = f.buf[:0], append(f.off[:0], 0)
}

func (f *frontier) len() int { return len(f.off) - 1 }

func (f *frontier) add(v []byte) {
	f.buf = append(f.buf, v...)
	f.off = append(f.off, len(f.buf))
}

// state is a view of entry i.
func (f *frontier) state(i int) efsm.State {
	return efsm.View(f.buf[f.off[i]:f.off[i+1]])
}

// cand is a successor an expander found that the table does not hold yet:
// its key at buf[off:off+klen] of the expander's arena, its representative
// right after it (or, without hasRep, the key's own bytes), and the edge
// that reached it.
type cand struct {
	off        int
	klen       int32
	hasRep     bool
	hash       uint32
	parent     uint32
	orbit      uint32
	act, sigma uint16
}

// expander is one frontier worker's arena and output for a round.
type expander struct {
	enc *efsm.CanonEncoder
	// acts and succ hold the actions of the state being expanded and the
	// successor being canonicalized.
	acts  []efsm.Action
	succ  []byte
	buf   []byte
	cands []cand
	// idx maps keys to positions in cands, so that a worker keeps only the
	// first candidate of each key it finds: it expands parents in id order
	// and actions in index order, so its first is its least.
	idx   hashidx.Index
	trans int64
	prob  *problemAt
	// over is the least frontier index of a state with more than
	// maxActions actions, -1 when there is none.
	over int
}

// key returns candidate i's key.
func (x *expander) key(i int) []byte {
	c := &x.cands[i]
	return x.buf[c.off : c.off+int(c.klen)]
}

// rep returns candidate i's representative.
func (x *expander) rep(i int) []byte {
	c := &x.cands[i]
	if !c.hasRep {
		return x.key(i)
	}
	at := c.off + int(c.klen)
	return x.buf[at : at+int(c.klen)]
}

// add records a new candidate unless the worker has one for its key
// already, and reports whether it did.
func (x *expander) add(c cand) bool {
	key := x.buf[c.off : c.off+int(c.klen)]
	if _, dup := x.idx.Find(c.hash, func(i uint32) bool { return bytes.Equal(x.key(int(i)), key) }); dup {
		return false
	}
	x.idx.Add(c.hash, uint32(len(x.cands)))
	x.cands = append(x.cands, c)
	return true
}

// search is the state of one CheckCtx call that the round phases share.
type search struct {
	r        *efsm.Runtime
	group    *efsm.SymGroup
	t        *table
	deadlock bool
}

// perm is the permutation of rank i, nil when symmetry reduction is off.
func (s *search) perm(i int) efsm.Perm {
	if s.group == nil {
		return nil
	}
	return s.group.Perm(i)
}

// appendKey appends st's key to dst, its canonical key under enc when
// reduction is on, and returns it with sigma's rank and the orbit size.
func (s *search) appendKey(enc *efsm.CanonEncoder, dst []byte, st *efsm.State) ([]byte, int, int) {
	if enc == nil {
		return s.r.AppendEncode(dst, st), 0, 1
	}
	return enc.AppendCanonical(dst, st)
}

// expand expands frontier entries w, w+workers, ... of cur, whose entry 0
// has id lo, into x.
func (s *search) expand(ctx context.Context, x *expander, cur *frontier, lo uint32, w, workers int) {
	x.buf, x.cands, x.trans, x.prob, x.over = x.buf[:0], x.cands[:0], 0, nil, -1
	x.idx.Reset()
	for i := w; i < cur.len(); i += workers {
		if (i/workers)&255 == 255 && ctx.Err() != nil {
			return
		}
		st := cur.state(i)
		acts, probs := s.r.AppendActions(x.acts[:0], &st)
		x.acts = acts
		if len(probs) > 0 {
			if x.prob == nil {
				x.prob = &problemAt{idx: i, name: probs[0].Kind.String(), detail: probs[0].Detail}
			}
			continue
		}
		if s.deadlock && len(acts) == 0 {
			if x.prob == nil {
				x.prob = &problemAt{idx: i, deadlock: true}
			}
			continue
		}
		if len(acts) > maxActions {
			if x.over < 0 {
				x.over = i
			}
			continue
		}
		x.trans += int64(len(acts))
		for ai, a := range acts {
			x.succ = s.r.AppendApply(x.succ[:0], &st, a)
			next := efsm.View(x.succ)
			off := len(x.buf)
			var rank, orbit int
			x.buf, rank, orbit = s.appendKey(x.enc, x.buf, &next)
			key := x.buf[off:]
			h := s.t.hash(key)
			c := cand{off: off, klen: int32(len(key)), hash: h, parent: lo + uint32(i),
				orbit: uint32(orbit), act: uint16(ai), sigma: uint16(rank)}
			if _, seen := s.t.find(key, h); seen || !x.add(c) {
				x.buf = x.buf[:off]
				continue
			}
			// The representative differs from the key only where an
			// unordered slot's records are out of order; otherwise the key
			// stands for it.
			end := len(x.buf)
			x.buf = s.r.AppendPermute(x.buf, &next, s.perm(rank))
			if bytes.Equal(x.buf[off:end], x.buf[end:]) {
				x.buf = x.buf[:end]
			} else {
				x.cands[len(x.cands)-1].hasRep = true
			}
		}
	}
	slices.SortFunc(x.cands, func(a, b cand) int {
		return bytes.Compare(x.buf[a.off:a.off+int(a.klen)], x.buf[b.off:b.off+int(b.klen)])
	})
}

// cref locates candidate i of expander w.
type cref struct{ w, i uint32 }

// merger merges a round's candidates.
type merger struct {
	xs []expander
	// heads is a heap of the next candidate of each worker's run.
	heads []cref
}

func (m *merger) cand(c cref) *cand { return &m.xs[c.w].cands[c.i] }

func (m *merger) key(c cref) []byte { return m.xs[c.w].key(int(c.i)) }

func (m *merger) rep(c cref) []byte { return m.xs[c.w].rep(int(c.i)) }

// merge appends the round's winners to win[:0] in key order: of the
// candidates with one key, the least in (parent id, action index). Each
// worker's candidates are distinct and sorted by key, so this is a k-way
// merge of their runs that keeps the first candidate of each key.
func (m *merger) merge(win []cref) []cref {
	win = win[:0]
	m.heads = m.heads[:0]
	for w := range m.xs {
		if len(m.xs[w].cands) > 0 {
			m.heads = append(m.heads, cref{uint32(w), 0})
		}
	}
	heap.Init(m)
	for len(m.heads) > 0 {
		c := m.heads[0]
		if n := len(win); n == 0 || !bytes.Equal(m.key(win[n-1]), m.key(c)) {
			win = append(win, c)
		}
		if int(c.i)+1 < len(m.xs[c.w].cands) {
			m.heads[0].i++
			heap.Fix(m, 0)
		} else {
			heap.Pop(m)
		}
	}
	return win
}

// The heap of run heads orders candidates by (key, parent id, action
// index).
func (m *merger) Len() int { return len(m.heads) }

func (m *merger) Less(i, j int) bool {
	a, b := m.heads[i], m.heads[j]
	if c := bytes.Compare(m.key(a), m.key(b)); c != 0 {
		return c < 0
	}
	ca, cb := m.cand(a), m.cand(b)
	return ca.parent < cb.parent || ca.parent == cb.parent && ca.act < cb.act
}

func (m *merger) Swap(i, j int) { m.heads[i], m.heads[j] = m.heads[j], m.heads[i] }

func (m *merger) Push(x any) { m.heads = append(m.heads, x.(cref)) }

func (m *merger) Pop() any {
	c := m.heads[len(m.heads)-1]
	m.heads = m.heads[:len(m.heads)-1]
	return c
}

// problemAt is a semantics problem or deadlock found at a frontier index;
// the least index (= least canonical key) wins the round.
type problemAt struct {
	idx      int
	deadlock bool
	name     string
	detail   string
}

// violAt is an invariant violation at an index of the accepted list, with
// the violated invariant's position (invariants are checked in order, so
// the least invariant index at the least state index mirrors the
// sequential checker).
type violAt struct {
	idx    int
	inv    int
	detail string
}
