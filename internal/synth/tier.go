package synth

import "transit/internal/expr"

// A size tier's composition work — (function symbol × size split) — is
// laid out as units. Each unit covers a contiguous range of the tier's
// canonical enumeration order, so every candidate has a tier-local index
// computable from its unit's base offset; a resumed round uses it to skip
// the candidates the previous round already consumed.

// tierUnit is function symbol f applied to arguments from pools, one per
// parameter, fixed by one size split.
type tierUnit struct {
	f     *expr.Func
	pools [][]entry
	// base is the tier-local 0-based index of the unit's first candidate;
	// count the unit total.
	base, count int64
}

// decode positions the odometer at the unit-local offset off: pools are
// iterated outermost-first, each in retention order.
func (u *tierUnit) decode(off int64, pos []int) {
	for j := len(u.pools) - 1; j >= 1; j-- {
		n := int64(len(u.pools[j]))
		pos[j] = int(off % n)
		off /= n
	}
	pos[0] = int(off)
}

// advance steps the odometer to the next candidate (caller guarantees one
// exists).
func (u *tierUnit) advance(pos []int) {
	for j := len(u.pools) - 1; ; j-- {
		pos[j]++
		if j == 0 || pos[j] < len(u.pools[j]) {
			return
		}
		pos[j] = 0
	}
}

// buildUnits lays out one tier's units in canonical order — function
// symbols in vocabulary order, size splits in recursion order. Empty
// products contribute nothing.
func (en *enumerator) buildUnits(size int) []tierUnit {
	var units []tierUnit
	var base int64
	for _, f := range en.p.Vocab.Funcs() {
		m := f.Arity()
		if m == 0 {
			continue
		}
		budget := size - 1
		if budget < m {
			continue
		}
		if cap(en.shareBuf) < m {
			en.shareBuf = make([]int, m)
		}
		shares := en.shareBuf[:m]
		var rec func(i, remaining int)
		rec = func(i, remaining int) {
			if i == m-1 {
				shares[i] = remaining
				pools := make([][]entry, m)
				count := int64(1)
				for j := 0; j < m; j++ {
					pools[j] = en.perSize[shares[j]][f.Params[j]]
					count *= int64(len(pools[j]))
				}
				if count == 0 {
					return
				}
				units = append(units, tierUnit{f: f, pools: pools, base: base, count: count})
				base += count
				return
			}
			for s := 1; s <= remaining-(m-1-i); s++ {
				shares[i] = s
				rec(i+1, remaining-s)
			}
		}
		rec(0, budget)
	}
	return units
}
