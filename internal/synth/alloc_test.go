package synth

import (
	"context"
	"slices"
	"testing"
	"time"

	"transit/internal/expr"
)

// composeFixture builds an enumerator mid-search: atoms retained, scratch
// buffers warm, shadow tracking on, and one composed size-3 candidate
// o(kids) already retained, so further considerApply calls on it take the
// pruned path.
func composeFixture(t testing.TB) (en *enumerator, o uint16, kids []uint32) {
	t.Helper()
	p, exs := maxConcrete(t)
	en = newEnumerator(context.Background(), newSchema(p), p, exs, Limits{MaxSize: 8}.WithDefaults(), time.Time{}, true)
	en.initFresh()
	if en.nProbe == 0 {
		t.Fatal("shadow tracking is off")
	}
	if found, err := en.runAtoms(0); err != nil || found {
		t.Fatalf("atom tier: found=%v err=%v", found, err)
	}
	en.trackTier = true
	for i, f := range p.Vocab.Funcs() {
		if f.Arity() == 2 && f.Params[0] == expr.IntType && f.Params[1] == expr.IntType && f.Ret == expr.IntType {
			o = en.funcOp(i)
			break
		}
	}
	if o == 0 {
		t.Fatal("no binary int function in vocabulary")
	}
	pool := en.pools[1][en.ops[o].params[0]]
	if len(pool) < 2 {
		t.Fatalf("size-1 int pool has %d entries", len(pool))
	}
	kids = []uint32{pool[0], pool[1]}
	if found, err := en.considerApply(o, kids, 0, 3); err != nil || found {
		t.Fatalf("warm-up: found=%v err=%v", found, err)
	}
	return en, o, kids
}

// TestComposeAllocFree guards the compose hot path. Pruning an
// already-seen candidate must not allocate: the row, the children's rows
// and the argument values are enumerator scratch, and the indexes compare
// keys in place in the arena. Retaining a candidate may only grow the
// store's columns, its arena and its pool: with those grown ahead, it must
// not allocate either.
func TestComposeAllocFree(t *testing.T) {
	en, o, kids := composeFixture(t)
	pruned := en.stats.InterpPruned
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := en.considerApply(o, kids, 0, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pruned considerApply allocates %.1f objects per call, want 0", allocs)
	}
	if en.stats.InterpPruned == pruned {
		t.Error("the pruned calls did not reach the full index")
	}

	const runs = 200
	s := en.ops[o].ret
	st := &en.stores[s]
	n := runs + 1
	st.op = slices.Grow(st.op, n)
	st.kidAt = slices.Grow(st.kidAt, n)
	st.kids = slices.Grow(st.kids, n*len(kids))
	st.rows = slices.Grow(st.rows, n*st.stride)
	en.pools[3][s] = slices.Grow(en.pools[3][s], n)
	before, kept := st.len(), en.stats.Kept
	allocs = testing.AllocsPerRun(runs, func() {
		// Forgetting the class makes the same candidate new again.
		st.seen.Reset()
		st.full.Reset()
		if _, err := en.considerApply(o, kids, 0, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("retaining considerApply allocates %.1f objects per call beyond column growth, want 0", allocs)
	}
	if got := st.len() - before; got != n || en.stats.Kept-kept != int64(n) {
		t.Errorf("%d calls stored %d entries and kept %d", n, got, en.stats.Kept-kept)
	}
}

// BenchmarkComposeAllocs measures the pruned compose hot path; run with
// -benchmem to see the allocation guarantee in the report.
func BenchmarkComposeAllocs(b *testing.B) {
	en, o, kids := composeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := en.considerApply(o, kids, 0, 3); err != nil {
			b.Fatal(err)
		}
	}
}
