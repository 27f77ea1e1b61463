package synth

import (
	"bytes"
	"context"
	"time"
)

// bank carries SolveConcrete's retained state across the CEGIS rounds of
// one SolveConcolic call: the per-type stores of packed entries, the
// per-size pools of signature-class representatives and the cursor of the
// round's winner. A new concretization only refines the signature
// partition — every retained representative stays the minimum-index
// representative of its refined class — so the next round appends one
// coordinate per entry, re-keys the index, and resumes enumeration right
// after the previous winner instead of restarting at size 1. The previous
// winner cannot match the new goal (its concretization was chosen to
// contradict it), and no earlier candidate can either (the new goal
// signature projects onto the old one), which is what makes resuming at
// the cursor sound; see DESIGN.md §10 for the full argument and for the
// restart fallback covering representatives that only the newest examples
// can distinguish.
type bank struct {
	// nExamples is the concretization count the rows cover.
	nExamples int
	// stores and pools are adopted from the winning enumerator.
	stores []store
	pools  [][][]uint32
	// shadows are the probe-distinct pruned duplicates the round
	// collected (plus the ones it inherited); the next round extends
	// their rows and uses them to detect a stale partition before
	// walking it (DESIGN.md §15).
	shadows []ref
	// alts are shadows whose classes already split in earlier rounds:
	// permanently missing from the pools, carried so the adopt-time
	// shallow probe can test them against each new goal. The pools can
	// never recover the split retroactively — every composition over an
	// alt is unreachable from them — so a live split means the resumed
	// walk may be searching a partition the fresh search would not build.
	alts []ref
	// curSize/curIdx locate the previous winner: candidate curIdx
	// (1-based, tier-local) of size tier curSize.
	curSize int
	curIdx  int64
}

// harvest captures the enumerator state after a successful solve. The
// enumerator is not used afterwards, so the stores, pools and shadows
// move instead of copy.
func (en *enumerator) harvest() *bank {
	// en.alts is nil on fresh enumerators: a restart rebuilds the pools
	// with every split class materialized, so inherited alts are obsolete.
	return &bank{nExamples: len(en.examples), stores: en.stores, pools: en.pools,
		shadows: en.shadows, alts: en.alts, curSize: en.curSize, curIdx: en.curIdx}
}

// usable reports whether the bank can seed a round over the given
// (append-only grown) example set. A bank built with zero examples is
// degenerate — every expression of a type was indistinguishable, so the
// pools hold one entry per type — and is cheaper to discard than to
// resume.
func (bk *bank) usable(examples []ConcreteExample, limits Limits) bool {
	return bk != nil && !limits.NoBankReuse && !limits.NoPrune &&
		bk.nExamples >= 1 && len(examples) > bk.nExamples &&
		bk.curSize >= 1 && bk.curSize <= limits.MaxSize
}

// resumeEnumerator builds an enumerator over the bank: stores and pools
// are adopted (the pools resized to the current MaxSize), every entry's
// row gains one field per new concretization (extend), and the resume
// cursor is set to the previous winner's position.
//
// The bank's shadows are extended the same way, and then consulted for
// staleness: a shadow whose extended example coordinates match no pooled
// class is a previously-pruned candidate the new concretizations
// distinguished — the pools provably lack a class a fresh search would
// retain. A split shadow that itself matches the new goal dooms the walk
// outright (resumeEnumerator returns nil and the caller restarts fresh);
// every other split becomes an alt, and a shallow probe over compositions
// of the alts decides whether the resumed walk is skipped, capped, or left
// to run (DESIGN.md §15).
func resumeEnumerator(ctx context.Context, sc *schema, p Problem, examples []ConcreteExample, limits Limits,
	deadline time.Time, bk *bank) *enumerator {
	en := newEnumerator(ctx, sc, p, examples, limits, deadline, true)
	en.stores = bk.stores
	en.pools = bk.pools
	if want := limits.MaxSize + 1; len(en.pools) != want {
		np := make([][][]uint32, want)
		copy(np, en.pools)
		for i := range np {
			if np[i] == nil {
				np[i] = make([][]uint32, len(en.stores))
			}
		}
		en.pools = np
	}
	en.extend(bk)
	// The cursor is set before shadow adoption: the shallow doom probe may
	// tighten resumeCap below the default slack.
	en.resumeSize, en.resumeSkip = bk.curSize, bk.curIdx
	en.resumeCap = bk.curSize + resumeCapSlack
	if en.nProbe > 0 {
		if !en.adoptShadows(bk) {
			return nil
		}
	}
	return en
}

// extend appends the new concretizations' coordinates to every live row
// and re-keys each store's seen index. Rows are re-laid at the wider
// stride, old fields first, so entry ranks never change. An entry's new
// fields are composed from its children's new fields — pools are extended
// in size order, and shadows and alts (whose children are pooled) after
// them, so the children's fields are always ready — and an atom's are
// direct evaluations. Extension only refines the partition: two pooled
// classes cannot come to share a key, and extend panics if they do.
func (en *enumerator) extend(bk *bank) {
	nNew := len(en.examples) - bk.nExamples
	for i := range en.stores {
		st := &en.stores[i]
		old := st.stride
		st.stride = st.w * (en.nProbe + en.nSig)
		if old != st.stride-st.w*nNew {
			panic("synth: banked rows do not match the enumerator's layout")
		}
		rows := make([]byte, st.len()*st.stride)
		for r := 0; r < st.len(); r++ {
			copy(rows[r*st.stride:], st.rows[r*old:(r+1)*old])
		}
		st.rows = rows
	}
	en.initScratch()
	first := en.nProbe + bk.nExamples
	for s := range en.pools {
		for t, pool := range en.pools[s] {
			for _, r := range pool {
				en.extendEntry(t, r, first)
			}
		}
	}
	for _, sh := range bk.shadows {
		en.extendEntry(sh.s, sh.r, first)
	}
	for _, a := range bk.alts {
		en.extendEntry(a.s, a.r, first)
	}
	for t := range en.stores {
		st := &en.stores[t]
		from := en.nProbe * st.w
		st.seen.Reset()
		for s := range en.pools {
			for _, r := range en.pools[s][t] {
				key := st.row(r)[from:]
				h := hashBytes(key)
				if _, dup := st.find(&st.seen, h, from, key); dup {
					panic("synth: extended keys of two pooled classes collide")
				}
				st.seen.Add(h, r)
			}
		}
	}
}

// extendEntry writes entry r of store t's coordinates from first on.
func (en *enumerator) extendEntry(t int, r uint32, first int) {
	st := &en.stores[t]
	a := &en.ops[st.op[r]]
	row := st.row(r)
	end := en.nProbe + en.nSig
	if a.atom != nil {
		for c := first; c < end; c++ {
			st.put(row[c*st.w:], a.atom.Eval(en.p.U, en.examples[c-en.nProbe].S))
		}
		return
	}
	kids := st.kidsOf(r)
	rows := en.kidRows[:len(kids)]
	for j, k := range kids {
		rows[j] = en.stores[a.params[j]].row(k)
	}
	en.compose(a, row, rows, first, end)
}

// adoptShadows checks each extended shadow against the re-keyed pools and
// rebuilds the full index over tracked pooled representatives and
// shadows. Shadows whose extended example coordinates escape every pooled
// class have split: one that itself matches the new goal proves the fresh
// winner sits at or before an expression the pools cannot reach, and
// adoptShadows reports false — restart immediately. Every other split
// becomes an alt, and the shallow probe over alt compositions decides
// whether the walk is skipped, capped, or left to the exhaustion fallback.
func (en *enumerator) adoptShadows(bk *bank) bool {
	keep := bk.shadows[:0]
	for _, sh := range bk.shadows {
		st := &en.stores[sh.s]
		from := en.nProbe * st.w
		key := st.row(sh.r)[from:]
		if _, pooled := st.find(&st.seen, hashBytes(key), from, key); pooled {
			keep = append(keep, sh)
			continue
		}
		if en.goalHit(sh.s, key) {
			return false
		}
		// Split shadows leave the shadow set, their rows no longer
		// describing a merged class, and become alts up to the cap.
		if len(bk.alts) < maxAlts {
			bk.alts = append(bk.alts, sh)
		}
	}
	bk.shadows = keep
	if len(bk.alts) > 0 {
		en.alts = bk.alts
		if s, doomed := en.shallowAltDoom(); doomed {
			// A goal-matching alt composition strictly above the previous
			// winner's tier means the resumed walk would have to clear its
			// whole resume tier and more before it could exhaust — at least
			// as expensive as the restart it would end in — so the walk is
			// skipped outright. At or below the previous winner's tier the
			// walk may still win first (the composition can sit after the
			// true winner in enumeration order), so the walk runs; the
			// composition's size still caps it for free, because any valid
			// resumed win precedes the composition and therefore sits in a
			// tier no larger than it.
			if s > bk.curSize {
				return false
			}
			if s < en.resumeCap {
				en.resumeCap = s
			}
		}
	}
	// Rebuild the full index over tracked pooled representatives and
	// shadows: the rows moved under extension. Non-split shadows by
	// definition share a pooled class's key.
	en.shadows = bk.shadows
	for t := range en.stores {
		en.stores[t].full.Reset()
	}
	for s := 1; s < len(en.pools) && s <= shadowTrackMaxSize; s++ {
		for t, pool := range en.pools[s] {
			st := &en.stores[t]
			for _, r := range pool {
				st.full.Add(hashBytes(st.row(r)), r)
			}
		}
	}
	for _, sh := range en.shadows {
		st := &en.stores[sh.s]
		st.full.Add(hashBytes(st.row(sh.r)), sh.r)
	}
	return true
}

// shallowAltDoomBudget caps the example evaluations one shallow probe may
// spend. The typical round is far below it (a handful of alts against a
// handful of size-1 entries); a vocabulary pathological enough to exceed
// it just skips the probe — the exhaustion fallback still guarantees
// completeness.
const shallowAltDoomBudget = 1 << 17

// shallowAltDoom looks for single applications f(args), with every
// argument drawn from the size-1 pools or the carried alts and at least
// one alt among them, that match the new goal on every example. Such a
// candidate is reachable for a fresh search but permanently unreachable
// from the resumed pools (an alt's class is exactly a class the pools are
// missing), so a match proves before the walk starts that the fresh
// search has a goal hit the resumed walk cannot reach. It returns the
// smallest such composition's size; the caller weighs it against the
// resume cursor to decide between skipping the walk and capping it (both
// are answer-safe — a fresh round is the reference search, and a valid
// resumed win always precedes the composition in enumeration order). The
// probe is deliberately shallow — one application over atoms and alts —
// because that is where the protocol workloads' stale rounds land (an
// ite over a split guard and two variables, a set operator over two split
// set differences); deeper dooms still fall to the exhaustion fallback.
func (en *enumerator) shallowAltDoom() (int, bool) {
	byStore := make([][]ref, len(en.stores))
	sizes := make([][]int, len(en.stores))
	for _, a := range en.alts {
		byStore[a.s] = append(byStore[a.s], a)
		sizes[a.s] = append(sizes[a.s], en.exprSize(a.s, a.r))
	}
	atoms := en.pools[1]
	n := len(en.examples)
	first := en.nProbe
	budget := shallowAltDoomBudget
	best := 0
	rows := en.kidRows
	out := &en.stores[en.outStore]
	row := en.rowBuf[:out.stride]
	key := row[first*out.w:]
	var try func(a *op, slot, sizeAcc int, hasAlt bool)
	try = func(a *op, slot, sizeAcc int, hasAlt bool) {
		if best != 0 && sizeAcc+(len(a.params)-slot) >= best {
			return
		}
		if slot == len(a.params) {
			if !hasAlt || budget < n {
				return
			}
			budget -= n
			en.compose(a, row, rows[:slot], first, first+n)
			if bytes.Equal(key, en.goal) {
				best = sizeAcc
			}
			return
		}
		t := a.params[slot]
		st := &en.stores[t]
		for _, r := range atoms[t] {
			rows[slot] = st.row(r)
			try(a, slot+1, sizeAcc+1, hasAlt)
		}
		for i, al := range byStore[t] {
			rows[slot] = st.row(al.r)
			try(a, slot+1, sizeAcc+sizes[t][i], true)
		}
	}
	for fi := range en.p.Vocab.Funcs() {
		a := &en.ops[en.funcOp(fi)]
		if len(a.params) == 0 || a.ret != en.outStore {
			continue
		}
		// Require every slot to be fillable and at least one alt-typed slot
		// before recursing.
		feasible, altSlot := true, false
		for _, t := range a.params {
			if len(atoms[t])+len(byStore[t]) == 0 {
				feasible = false
				break
			}
			if len(byStore[t]) > 0 {
				altSlot = true
			}
		}
		if !feasible || !altSlot {
			continue
		}
		try(a, 0, 1, false)
		if budget < n {
			break
		}
	}
	return best, best != 0
}

// resumeCapSlack bounds how many size tiers past the previous winner a
// resumed search explores before conceding to the restart fallback. The
// trade is empirical: CEGIS winners regularly jump a few sizes between
// rounds (so a tight cap forces spurious restarts on healthy banks), but
// tier cost grows exponentially with size, so a stale bank that is only
// detected by exhausting every tier up to MaxSize costs several times the
// fresh search it ends up triggering anyway. Four tiers of slack covers
// every jump the Table 3 protocols exhibit (abs-diff's winners move four
// sizes between rounds) while keeping the worst-case stale walk bounded
// when MaxSize is generous (the CLIs default to 14).
const resumeCapSlack = 4
