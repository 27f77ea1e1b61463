package efsm

import (
	"fmt"

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
// a System, and an exact minimum-encoding canonicalizer.

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
	if pi == nil || pi.IsIdentity() {
		return st.Clone()
	}
	var rbuf [slotBuf]slotRef
	v, _ := r.appendImage(make([]byte, 0, len(st.v)), st.v, r.refsFor(st.v, rbuf[:]), pi, pi.Inverse(), false, nil)
	return &State{v: v}
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
// PID (a PID literal, or a set literal other than {} and the full set).
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
			if err := symmetricExpr(s.U, t.Guard, ctx+" guard"); err != nil {
				return err
			}
			for _, u := range t.Updates {
				if err := symmetricExpr(s.U, u.Rhs, ctx+" update "+u.Var); err != nil {
					return err
				}
			}
			for _, snd := range t.Sends {
				if err := symmetricExpr(s.U, snd.TargetSet, ctx+" multicast target"); err != nil {
					return err
				}
				for _, f := range snd.Fields {
					if err := symmetricExpr(s.U, f.Rhs, ctx+" send field "+f.Field); err != nil {
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
// {} and the full set.
func symmetricExpr(u *expr.Universe, e expr.Expr, ctx string) error {
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
	case *expr.Const:
		return check(n.Val)
	case *expr.Apply:
		if len(n.Args) == 0 {
			return check(n.Eval(u, nil))
		}
		for _, a := range n.Args {
			if err := symmetricExpr(u, a, ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxSymmetryPIDs caps the exact canonicalizer: it scans all n!
// permutations per state, which stops being a win past 8 PIDs (40320
// permutations).
const MaxSymmetryPIDs = 8

// SymGroup is the full symmetric group over the PID domain, precomputed
// for a runtime whose system passed PIDSymmetric. It is immutable and
// safe to share across goroutines; each goroutine takes its own Encoder.
type SymGroup struct {
	r     *Runtime
	perms []Perm
	invs  []Perm
}

// NewSymGroup validates that the runtime's system is PID-symmetric and
// within the exact canonicalizer's domain cap, then precomputes the
// permutation group in lexicographic order (perms[0] is the identity).
func NewSymGroup(r *Runtime) (*SymGroup, error) {
	if err := r.Sys.PIDSymmetric(); err != nil {
		return nil, err
	}
	n := r.Sys.U.NumCaches()
	if n > MaxSymmetryPIDs {
		return nil, fmt.Errorf("efsm: %d caches exceeds the %d-PID exact canonicalization cap", n, MaxSymmetryPIDs)
	}
	g := &SymGroup{r: r}
	var gen func(prefix Perm, rest []int)
	gen = func(prefix Perm, rest []int) {
		if len(rest) == 0 {
			p := append(Perm(nil), prefix...)
			g.perms = append(g.perms, p)
			g.invs = append(g.invs, p.Inverse())
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

// Encoder returns a canonicalizer with its own scratch buffers. Encoders
// are cheap; take one per goroutine (they are not safe for concurrent
// use, the group behind them is).
func (g *SymGroup) Encoder() *CanonEncoder {
	return &CanonEncoder{g: g}
}

// CanonEncoder computes a state's canonical key: the lexicographically
// least Runtime.Encode image over every PID permutation. Exactness
// matters twice over — it makes the key a true orbit invariant (permuted
// runs of a whole system reach the same canonical set), and it lets the
// orbit size be counted in the same scan: the permutations achieving the
// minimum form a coset of the stabilizer, so |orbit| = n! / #minima.
type CanonEncoder struct {
	g       *SymGroup
	refs    []slotRef
	scratch []byte
	best    []byte
}

// Canonicalize returns the canonical key of st, the permutation sigma
// with Encode(Permute(st, sigma)) == key (the lexicographically first
// such permutation, so the choice is deterministic), and the orbit size
// |S_n| / |stabilizer(st)|. Each permutation's image is compared to the
// running minimum as it is written and abandoned after the first instance
// block or slot that exceeds it, which prunes most of the n! scan in
// practice.
func (e *CanonEncoder) Canonicalize(st *State) (string, Perm, int) {
	r := e.g.r
	e.refs = r.refsFor(st.v, e.refs)
	// perms[0] is the identity: the unpermuted image.
	e.best, _ = r.appendImage(e.best[:0], st.v, e.refs, nil, nil, true, nil)
	sigma, minima := e.g.perms[0], 1
	for i := 1; i < len(e.g.perms); i++ {
		pi := e.g.perms[i]
		var cmp int
		e.scratch, cmp = r.appendImage(e.scratch[:0], st.v, e.refs, pi, e.g.invs[i], true, e.best)
		switch {
		case cmp < 0:
			e.best, e.scratch = e.scratch, e.best
			sigma = pi
			minima = 1
		case cmp == 0:
			minima++
		}
	}
	return string(e.best), sigma, len(e.g.perms) / minima
}
