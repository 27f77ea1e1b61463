package synth

// A size tier's composition work — (function symbol × size split) — is
// laid out as units. Each unit covers a contiguous range of the tier's
// canonical enumeration order, so every candidate has a tier-local index
// computable from its unit's base offset; a resumed round uses it to skip
// the candidates the previous round already consumed.

// tierUnit is op op applied to arguments from pools (ranks in the stores
// of its parameter types), one per parameter, fixed by one size split.
type tierUnit struct {
	op    uint16
	pools [][]uint32
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
// exists) and returns the first position it moved.
func (u *tierUnit) advance(pos []int) int {
	for j := len(u.pools) - 1; ; j-- {
		pos[j]++
		if j == 0 || pos[j] < len(u.pools[j]) {
			return j
		}
		pos[j] = 0
	}
}

// buildUnits lays out one tier's units in canonical order — function
// symbols in vocabulary order, size splits in recursion order. Empty
// products contribute nothing.
func (en *enumerator) buildUnits(size int) []tierUnit {
	// The units and their pool lists reuse the previous tier's storage.
	units, unitPools := en.unitBuf[:0], en.unitPools[:0]
	defer func() { en.unitBuf, en.unitPools = units, unitPools }()
	var base int64
	for fi, f := range en.p.Vocab.Funcs() {
		m := f.Arity()
		if m == 0 {
			continue
		}
		budget := size - 1
		if budget < m {
			continue
		}
		o := en.funcOp(fi)
		params := en.ops[o].params
		shares := en.shareBuf[:m]
		var rec func(i, remaining int)
		rec = func(i, remaining int) {
			if i == m-1 {
				shares[i] = remaining
				count := int64(1)
				for j := 0; j < m; j++ {
					count *= int64(len(en.pools[shares[j]][params[j]]))
				}
				if count == 0 {
					return
				}
				at := len(unitPools)
				for j := 0; j < m; j++ {
					unitPools = append(unitPools, en.pools[shares[j]][params[j]])
				}
				units = append(units, tierUnit{op: o, pools: unitPools[at : at+m : at+m], base: base, count: count})
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
