package synth

import (
	"fmt"
	"sync/atomic"
)

// CheckResumedRounds makes every resumed enumerator check its pools
// against the evaluator (checkPools) once its walk ends, passing each
// failure to fail, until the returned stop is called. checked counts the
// rounds checked.
func CheckResumedRounds(fail func(error)) (checked *atomic.Int64, stop func()) {
	checked = new(atomic.Int64)
	afterResumedRound = func(en *enumerator) {
		checked.Add(1)
		if err := en.checkPools(); err != nil {
			fail(err)
		}
	}
	return checked, func() { afterResumedRound = nil }
}

// checkPools is the extension's evaluator oracle: every pooled entry,
// shadow and alt must decode, coordinate by coordinate, to its
// materialized expression's Eval on every concretization (and, where it
// carries them, on every shadow probe), and each store's indexes must find
// every pooled entry by its own key and every tracked entry by its own
// row.
func (en *enumerator) checkPools() error {
	for size := range en.pools {
		for t, pool := range en.pools[size] {
			st := &en.stores[t]
			tracked := en.nProbe > 0 && size <= shadowTrackMaxSize
			for _, r := range pool {
				if err := en.checkEntry(t, r, size, tracked); err != nil {
					return err
				}
				from := en.nProbe * st.w
				key := st.row(r)[from:]
				if got, ok := st.find(&st.seen, hashBytes(key), from, key); !ok || got != r {
					return fmt.Errorf("size %d %s entry %d (%s): seen index finds %d, %v",
						size, st.t, r, en.materialize(t, r), got, ok)
				}
				if tracked {
					if err := en.checkFull(t, r); err != nil {
						return err
					}
				}
			}
		}
	}
	for _, sh := range en.shadows {
		if err := en.checkEntry(sh.s, sh.r, 0, true); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
		if err := en.checkFull(sh.s, sh.r); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
	}
	for _, a := range en.alts {
		if err := en.checkEntry(a.s, a.r, 0, true); err != nil {
			return fmt.Errorf("alt: %w", err)
		}
	}
	return nil
}

// checkEntry compares entry r of store t with its expression's Eval; a
// nonzero size must be the expression's size.
func (en *enumerator) checkEntry(t int, r uint32, size int, probes bool) error {
	st := &en.stores[t]
	e := en.materialize(t, r)
	if e.Type() != st.t || (size != 0 && e.Size() != size) {
		return fmt.Errorf("%s entry %d is %s, of type %s and size %d", st.t, r, e, e.Type(), e.Size())
	}
	row := st.row(r)
	first := en.nProbe + len(en.probes)
	for k, ex := range en.examples {
		if got, want := st.get(row[(first+k)*st.w:]), e.Eval(en.p.U, ex.S); got != want {
			return fmt.Errorf("%s on example %d of %d: packed %v, Eval %v", e, k, len(en.examples), got, want)
		}
	}
	if probes {
		for k, env := range en.shadowProbes {
			if got, want := st.get(row[k*st.w:]), e.Eval(en.p.U, env); got != want {
				return fmt.Errorf("%s on shadow probe %d: packed %v, Eval %v", e, k, got, want)
			}
		}
	}
	return nil
}

// checkFull reports whether the full index finds entry r of store t by
// its row.
func (en *enumerator) checkFull(t int, r uint32) error {
	st := &en.stores[t]
	row := st.row(r)
	if got, ok := st.find(&st.full, hashBytes(row), 0, row); !ok || got != r {
		return fmt.Errorf("%s entry %d (%s): full index finds %d, %v", st.t, r, en.materialize(t, r), got, ok)
	}
	return nil
}
