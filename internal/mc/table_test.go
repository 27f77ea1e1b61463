package mc

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestVisitedTable inserts random variable-length keys, keys that are
// prefixes of one another and keys that differ only in their last byte,
// checking each lookup against a map reference. The index grows several
// times and the arena spans several pages; ids must come back dense and in
// insertion order, and every column must round-trip. It runs once with the
// table's hash and once with a hash of the first byte alone, under which
// keys collide and lookups must tell them apart by their bytes.
func TestVisitedTable(t *testing.T) {
	firstByte := func(_ *table, k []byte) uint32 {
		if len(k) == 0 {
			return 0
		}
		return uint32(k[0])
	}
	t.Run("maphash", func(t *testing.T) { testVisitedTable(t, (*table).hash, 20000) })
	t.Run("first byte", func(t *testing.T) { testVisitedTable(t, firstByte, 6000) })
}

func testVisitedTable(t *testing.T, hash func(*table, []byte) uint32, n int) {
	rng := rand.New(rand.NewSource(1))
	var keys []string
	long := make([]byte, 20000)
	rng.Read(long)
	for i := 0; i <= len(long); i += 97 {
		keys = append(keys, string(long[:i])) // prefixes, the empty key first
	}
	for i := 0; i < 256; i++ {
		keys = append(keys, "last byte "+string([]byte{byte(i)}))
	}
	for len(keys) < n {
		k := make([]byte, rng.Intn(80))
		rng.Read(k)
		keys = append(keys, string(k))
	}
	ref := map[string]uint32{}
	tab := newTable()
	type cols struct {
		parent     uint32
		act, sigma uint16
	}
	var want []cols
	for _, k := range keys {
		h := hash(tab, []byte(k))
		id, found := tab.find([]byte(k), h)
		if rid, ok := ref[k]; ok != found || ok && rid != id {
			t.Fatalf("find(%q) = %d, %v; reference %d, %v", k, id, found, rid, ok)
		}
		if found {
			continue
		}
		c := cols{rng.Uint32(), uint16(rng.Intn(1 << 16)), uint16(rng.Intn(40320))}
		id, err := tab.insert([]byte(k), h, c.parent, c.act, c.sigma)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != len(ref) {
			t.Fatalf("insert %d gave id %d", len(ref), id)
		}
		ref[k] = id
		want = append(want, c)
	}
	if tab.len() != len(ref) {
		t.Fatalf("table holds %d keys, reference %d", tab.len(), len(ref))
	}
	if tab.idx.Slots() < 8*1024 || len(tab.pages) < 2 {
		t.Fatalf("index grew to %d slots over %d pages; want ≥ 8192 slots and 2+ pages",
			tab.idx.Slots(), len(tab.pages))
	}
	for k, id := range ref {
		got, ok := tab.find([]byte(k), hash(tab, []byte(k)))
		if !ok || got != id || string(tab.key(id)) != k {
			t.Fatalf("key %q: find %d, %v, stored %q; want id %d", k, got, ok, tab.key(id), id)
		}
		if c := want[id]; tab.parent[id] != c.parent || tab.act[id] != c.act || tab.sigma[id] != c.sigma {
			t.Fatalf("id %d columns (%d, %d, %d), want %+v", id, tab.parent[id], tab.act[id], tab.sigma[id], c)
		}
		miss := k + "\x00"
		if _, in := ref[miss]; !in {
			if _, ok := tab.find([]byte(miss), hash(tab, []byte(miss))); ok {
				t.Fatalf("absent key %q found", miss)
			}
		}
	}
}

// TestTableLimits checks that a value the columns cannot hold is an error
// wrapping ErrTableLimit: a state id past the id limit, a key offset past
// the arena's offset width, and a key longer than an arena page.
func TestTableLimits(t *testing.T) {
	ids, arena := maxIDs, maxArena
	defer func() { maxIDs, maxArena = ids, arena }()
	insert := func(tab *table, k string) error {
		_, err := tab.insert([]byte(k), tab.hash([]byte(k)), 0, 0, 0)
		return err
	}

	maxIDs = 3
	tab := newTable()
	for _, k := range []string{"a", "b", "c"} {
		if err := insert(tab, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := insert(tab, "d"); !errors.Is(err, ErrTableLimit) {
		t.Errorf("id past the limit: err = %v, want ErrTableLimit", err)
	}
	maxIDs = ids

	maxArena = 10
	tab = newTable()
	if err := insert(tab, "abcd"); err != nil { // 5 bytes with its length
		t.Fatal(err)
	}
	if err := insert(tab, "efghij"); !errors.Is(err, ErrTableLimit) {
		t.Errorf("offset past the arena: err = %v, want ErrTableLimit", err)
	}
	maxArena = arena

	if err := insert(newTable(), strings.Repeat("k", pageSize)); !errors.Is(err, ErrTableLimit) {
		t.Errorf("key longer than a page: err = %v, want ErrTableLimit", err)
	}
}

// TestCheckTableLimits checks that a search whose states overflow the
// table's columns stops with an error wrapping ErrTableLimit, at the same
// point for every worker count and with reduction on or off.
func TestCheckTableLimits(t *testing.T) {
	ids, arena, acts := maxIDs, maxArena, maxActions
	restore := func() { maxIDs, maxArena, maxActions = ids, arena, acts }
	defer restore()
	sys, client, _ := tokenSystem(t, tokenOpts{})
	r := mustRuntime(t, sys)
	for _, c := range []struct {
		name string
		set  func()
	}{
		{"ids", func() { maxIDs = 5 }},
		{"arena", func() { maxArena = 64 }},
		{"actions", func() { maxActions = 2 }},
	} {
		for _, sym := range []bool{false, true} {
			c.set()
			var base *Result
			for _, w := range []int{1, 2, 8} {
				res, err := CheckCtx(context.Background(), r, []Invariant{AtMostOne(client, "Holding")},
					Options{Workers: w, SymmetryReduction: sym})
				if !errors.Is(err, ErrTableLimit) {
					t.Fatalf("%s symmetry=%v workers=%d: err = %v, want ErrTableLimit", c.name, sym, w, err)
				}
				normalize(res)
				if base == nil {
					base = res
				} else if base.States != res.States || base.Transitions != res.Transitions || base.Depth != res.Depth {
					t.Errorf("%s symmetry=%v: workers=%d stops at %+v, workers=1 at %+v", c.name, sym, w, res, base)
				}
			}
			restore()
		}
	}
}
