package mc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"

	"transit/internal/hashidx"
)

// ErrStateBudget is wrapped by the error a search returns when it stores
// Options.MaxStates states without exhausting the space.
var ErrStateBudget = errors.New("mc: state budget exhausted")

// ErrTableLimit is wrapped by the error a search returns when the visited
// table cannot hold a value in its fixed-width columns: a state id past
// what uint32 ids and their index allow, a key offset past the arena's
// uint32 offsets, or an action index past uint16.
var ErrTableLimit = errors.New("mc: visited table limit")

// The limits of the table's columns. They are variables only so that tests
// can reach them on small systems.
var (
	// maxIDs is the most states the table holds: ids are uint32, and the
	// index, which homes a slot by 32 hash bits, has at most 2^32 slots,
	// filled to 3/4.
	maxIDs uint64 = 3 << 30
	// maxArena is the most key bytes the arena holds: offsets are uint32.
	maxArena uint64 = 1 << 32
	// maxActions is the most actions a state may have: the action column
	// is uint16.
	maxActions = math.MaxUint16
)

// pageBits sizes the key arena's pages. The arena grows a page at a time,
// so growing it never copies the keys already stored.
const (
	pageBits = 20
	pageSize = 1 << pageBits
)

// table is the visited set. Each state has a dense uint32 id, handed out
// in insertion order. Its canonical key lives in an append-only byte arena,
// prefixed with its length as a uvarint and never split across pages, and
// its columns record how the search first reached it: the parent's id, the
// action's index in the parent's Actions list, and sigma's rank in the
// symmetry group (0, the identity, when reduction is off). An index maps
// keys to ids. Nothing in it is a pointer per state, so the garbage
// collector never scans it.
type table struct {
	seed   maphash.Seed
	pages  [][]byte
	off    []uint32
	parent []uint32
	act    []uint16
	sigma  []uint16
	idx    hashidx.Index
}

func newTable() *table {
	return &table{seed: maphash.MakeSeed()}
}

// hash is the hash of a key that find and insert take.
func (t *table) hash(key []byte) uint32 {
	return uint32(maphash.Bytes(t.seed, key))
}

// len is the number of states stored.
func (t *table) len() int { return len(t.off) }

// key returns the key of state id, aliasing the arena.
func (t *table) key(id uint32) []byte {
	o := t.off[id]
	p := t.pages[o>>pageBits][o&(pageSize-1):]
	n, k := binary.Uvarint(p)
	return p[k : k+int(n)]
}

// find returns the id of key, whose hash is h.
func (t *table) find(key []byte, h uint32) (uint32, bool) {
	return t.idx.Find(h, func(id uint32) bool { return bytes.Equal(t.key(id), key) })
}

// insert stores a key that is not in the table yet, with hash h and its
// columns, and returns its id.
func (t *table) insert(key []byte, h, parent uint32, act, sigma uint16) (uint32, error) {
	n := uint64(len(t.off))
	if n >= maxIDs {
		return 0, fmt.Errorf("%w: more than %d states", ErrTableLimit, maxIDs)
	}
	var lb [binary.MaxVarintLen64]byte
	need := binary.PutUvarint(lb[:], uint64(len(key))) + len(key)
	if need > pageSize {
		return 0, fmt.Errorf("%w: a %d-byte key does not fit a %d-byte arena page", ErrTableLimit, len(key), pageSize)
	}
	last := len(t.pages) - 1
	if last < 0 || len(t.pages[last])+need > pageSize {
		t.pages = append(t.pages, make([]byte, 0, pageSize))
		last++
	}
	o := uint64(last)<<pageBits | uint64(len(t.pages[last]))
	if o+uint64(need) > maxArena {
		return 0, fmt.Errorf("%w: key offsets past %d bytes", ErrTableLimit, maxArena)
	}
	p := binary.AppendUvarint(t.pages[last], uint64(len(key)))
	t.pages[last] = append(p, key...)
	id := uint32(n)
	t.off = append(t.off, uint32(o))
	t.parent = append(t.parent, parent)
	t.act = append(t.act, act)
	t.sigma = append(t.sigma, sigma)
	t.idx.Add(h, id)
	return id, nil
}
