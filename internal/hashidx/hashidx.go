// Package hashidx is an open-addressed, linearly probed hash index over
// dense uint32 ids. It stores no keys: the caller keeps them in its own
// columns or arenas, and Find asks the caller whether a stored id's key is
// the one sought. The model checker's visited table and the enumerator's
// signature pools both index their entries with it.
package hashidx

// Index maps key hashes to ids. A slot holds the low 32 bits of a key's
// hash in its high half and the key's id+1 in its low half, 0 when empty.
// The hash half picks the home slot, rehomes the slot when the index
// grows, and rules out most key comparisons. The zero Index is empty and
// ready to use.
type Index struct {
	slots []uint64
	n     int
}

// minSlots is the size an index first grows to. Indexes run from a few
// entries (an enumerator's early rounds) to millions (the model checker's
// visited set), and doubling from a small start costs nothing measurable
// at the large end.
const minSlots = 16

// Find returns the id under hash h for which eq holds.
func (ix *Index) Find(h uint32, eq func(id uint32) bool) (uint32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == h && eq(uint32(s)-1) {
			return uint32(s) - 1, true
		}
	}
}

// Add records id under hash h, doubling the index past 3/4 load. It does
// not look for an id already under h: callers Find first when keys must
// stay distinct.
func (ix *Index) Add(h, id uint32) {
	if 4*(ix.n+1) > 3*len(ix.slots) {
		old := ix.slots
		ix.slots = make([]uint64, max(minSlots, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				ix.place(s)
			}
		}
	}
	ix.place(uint64(h)<<32 | uint64(id+1))
	ix.n++
}

// place puts slot s at the first free slot from its home.
func (ix *Index) place(s uint64) {
	mask := uint32(len(ix.slots) - 1)
	i := uint32(s>>32) & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

// Reset empties the index and keeps its size.
func (ix *Index) Reset() {
	clear(ix.slots)
	ix.n = 0
}

// Slots is the number of slots the index has grown to.
func (ix *Index) Slots() int { return len(ix.slots) }
