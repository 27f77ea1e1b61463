package efsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"transit/internal/expr"
)

// Instance is one running process: a definition plus, for replicated
// definitions, its PID.
type Instance struct {
	Def *ProcDef
	// Idx is the instance's global index in the runtime.
	Idx int
	// PID is the cache identity for replicated instances, 0 for
	// singletons (whose Self variable is never meaningful).
	PID int
}

// Name renders "Dir" or "Cache1".
func (in *Instance) Name() string {
	if in.Def.Replicated {
		return fmt.Sprintf("%s%d", in.Def.Name, in.PID)
	}
	return in.Def.Name
}

// Msg is a message value: field values in MessageType order.
type Msg []expr.Value

// State is a global protocol state: per-instance local states and
// per-network, per-receiver-slot pending messages, packed into one byte
// vector in the layout of the runtime that made it (see layout.go). Only
// that runtime can read it; its accessors are CtlOf, CtlOrd, VarOf, VarAt
// and Pending.
type State struct {
	v []byte
}

// Clone copies a state.
func (st *State) Clone() *State {
	return &State{v: append([]byte(nil), st.v...)}
}

// View returns the state whose packed vector is v, without copying it: v
// must hold a vector of the runtime that reads the state, such as one
// AppendPermute wrote, and must not change while the view is in use.
func View(v []byte) State {
	return State{v: v}
}

// procLayout is the block layout of a definition's instances and the
// definition's compiled transitions.
type procLayout struct {
	def *ProcDef
	ctl field
	// block spans the control field and the variables; its fields are
	// the variables in declaration order.
	block packedBlock
	// trig[c][k] and recv[c][n] are the candidate transitions from control
	// state c on the definition's k-th trigger and on network n, in
	// declaration order.
	trig [][][]*ctrans
	recv [][][]*ctrans
}

// netLayout is the record layout and slot placement of one network.
type netLayout struct {
	net     *Network
	rec     packedBlock
	ordered bool
	slots   int
	// base is the global index of the network's first slot.
	base int
	// dest is the routing field's index on by-field routes, -1 on static
	// ones.
	dest int
	// recv is the receiving instance of each slot.
	recv []int
}

// Runtime instantiates a System and implements its execution semantics.
type Runtime struct {
	Sys   *System
	Insts []*Instance
	byDef map[*ProcDef][]int
	// procs, peers and procOff are per instance: its definition's layout,
	// the instances of its definition by PID, and its block's offset.
	procs     []*procLayout
	peers     [][]int
	procOff   []int
	netsOff   int
	nets      []netLayout
	netByName map[string]int
	numSlots  int
	// slotNet is the network of each global slot.
	slotNet []int
	// maxScope is the largest compiled scope: variables, Self and message
	// fields.
	maxScope int
}

// NewRuntime validates the system, builds its instances (one per PID for
// each replicated definition, one for each singleton), fixes the packed
// state layout, and compiles every transition.
func NewRuntime(sys *System) (*Runtime, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	u := sys.U
	r := &Runtime{
		Sys:       sys,
		byDef:     make(map[*ProcDef][]int),
		netByName: make(map[string]int),
	}
	layouts := make([]*procLayout, len(sys.Defs))
	off := 0
	for i, d := range sys.Defs {
		pl := &procLayout{def: d, ctl: newField(u, expr.EnumOf(d.States), 0)}
		types := make([]expr.Type, len(d.Vars))
		for j, v := range d.Vars {
			types[j] = v.VT
		}
		pl.block = newBlock(u, pl.ctl.w, types)
		layouts[i] = pl
		n := 1
		if d.Replicated {
			n = u.NumCaches()
		}
		for pid := 0; pid < n; pid++ {
			inst := &Instance{Def: d, Idx: len(r.Insts), PID: pid}
			r.Insts = append(r.Insts, inst)
			r.byDef[d] = append(r.byDef[d], inst.Idx)
			r.procs = append(r.procs, pl)
			r.procOff = append(r.procOff, off)
			off += pl.block.size
		}
	}
	for _, inst := range r.Insts {
		r.peers = append(r.peers, r.byDef[inst.Def])
	}
	r.netsOff = off
	maxFields := 0
	for i, n := range sys.Networks {
		r.netByName[n.Name] = i
		types := make([]expr.Type, len(n.Msg.Fields))
		for j, f := range n.Msg.Fields {
			types[j] = f.T
		}
		nl := netLayout{net: n, rec: newBlock(u, 0, types), ordered: n.Kind == Ordered,
			slots: 1, base: r.numSlots, dest: -1}
		if n.Route == RouteByField {
			nl.slots = u.NumCaches()
			nl.dest = n.Msg.FieldIndex(n.DestField)
		}
		ids := r.byDef[n.Receiver]
		if len(ids) == 0 {
			return nil, fmt.Errorf("efsm: network %s receiver %s has no instances", n.Name, n.Receiver.Name)
		}
		for s := 0; s < nl.slots; s++ {
			if nl.dest >= 0 {
				nl.recv = append(nl.recv, ids[s])
			} else {
				nl.recv = append(nl.recv, ids[0])
			}
			r.slotNet = append(r.slotNet, i)
		}
		r.numSlots += nl.slots
		r.nets = append(r.nets, nl)
		maxFields = max(maxFields, len(types))
	}
	for _, pl := range layouts {
		if err := r.compileDef(pl); err != nil {
			return nil, err
		}
		r.maxScope = max(r.maxScope, len(pl.def.Vars)+1+maxFields)
	}
	return r, nil
}

// compileDef compiles a definition's transitions and files them under
// their source state and event.
func (r *Runtime) compileDef(pl *procLayout) error {
	d := pl.def
	nc := len(d.States.Values)
	pl.trig = make([][][]*ctrans, nc)
	pl.recv = make([][][]*ctrans, nc)
	for c := range pl.trig {
		pl.trig[c] = make([][]*ctrans, len(d.Triggers))
		pl.recv[c] = make([][]*ctrans, len(r.nets))
	}
	for _, t := range d.Transitions {
		ct, err := r.compileTrans(pl, t)
		if err != nil {
			return err
		}
		c := d.States.Ord(t.From)
		if !t.Event.IsTrigger() {
			n := r.netByName[t.Event.Net.Name]
			pl.recv[c][n] = append(pl.recv[c][n], ct)
			continue
		}
		for k, trig := range d.Triggers {
			if trig == t.Event.Trigger {
				pl.trig[c][k] = append(pl.trig[c][k], ct)
			}
		}
	}
	return nil
}

// Initial builds the initial global state.
func (r *Runtime) Initial() *State {
	// Every slot starts empty: a one-byte zero count.
	v := make([]byte, r.netsOff+r.numSlots)
	for i, inst := range r.Insts {
		pl, b := r.procs[i], v[r.procOff[i]:]
		d := inst.Def
		pl.ctl.put(b, uint64(d.States.Ord(d.Init)))
		for j, vr := range d.Vars {
			// Zero payloads are every type's ZeroOf.
			if init, ok := d.InitVals[vr.Name]; ok {
				pl.block.fields[j].put(b, payload(init))
			}
		}
	}
	return &State{v: v}
}

// Action is one enabled step: an instance handling a trigger or consuming
// a specific pending message via a specific transition.
type Action struct {
	Inst  int
	Trans *Transition
	// Net/Slot/Pos locate the consumed message; Net < 0 for triggers.
	Net, Slot, Pos int
	Msg            Msg
	// ct is Trans compiled. A definition's instances share its compiled
	// transitions, so PermuteAction keeps it valid.
	ct *ctrans
}

// ProblemKind classifies execution-semantics violations detected while
// enumerating actions.
type ProblemKind int

const (
	// UnexpectedMessage: a deliverable message has no matching transition
	// (and no stall rule) in the receiver's current state — the error the
	// paper's case studies repeatedly hit for underspecified protocols.
	UnexpectedMessage ProblemKind = iota
	// NonDeterministic: more than one guard of a (state, event) group is
	// simultaneously true, violating the §5.2 determinism requirement.
	NonDeterministic
)

func (k ProblemKind) String() string {
	if k == UnexpectedMessage {
		return "unexpected message"
	}
	return "nondeterministic guards"
}

// Problem is a semantics violation at a state.
type Problem struct {
	Kind   ProblemKind
	Inst   int
	Event  Event
	Msg    Msg
	Detail string
}

// scopeBuf is the stack buffer size for a compiled scope; larger scopes
// are allocated.
const scopeBuf = 32

// slotBuf is the stack buffer size for a state's slot index.
const slotBuf = 32

func (r *Runtime) scope(buf []uint64) []uint64 {
	if len(buf) < r.maxScope {
		return make([]uint64, r.maxScope)
	}
	return buf[:r.maxScope]
}

// load fills the start of s with an instance's variables and Self; its
// message fields, if any, follow at s[len(vars)+1:].
func (r *Runtime) load(s []uint64, v []byte, inst int) []uint64 {
	pl, b := r.procs[inst], v[r.procOff[inst]:]
	for j := range pl.block.fields {
		s[j] = pl.block.fields[j].get(b)
	}
	s[len(pl.block.fields)] = uint64(r.Insts[inst].PID)
	return s[len(pl.block.fields)+1:]
}

func loadRecord(s []uint64, rec *packedBlock, b []byte) {
	for j := range rec.fields {
		s[j] = rec.fields[j].get(b)
	}
}

// Actions enumerates the enabled actions of a state and any semantics
// problems. For ordered networks only the head of each slot is
// deliverable; for unordered networks every distinct pending message is.
func (r *Runtime) Actions(st *State) ([]Action, []Problem) {
	var rbuf [slotBuf]slotRef
	return r.appendActions(nil, st, r.refsFor(st.v, rbuf[:]), true)
}

// Stepper expands one state at a time: Actions indexes the state's slots
// once, and Apply reuses that index for every action of the state and
// indexes each successor as it writes it, for the stepper's encoders to
// read. It runs the matcher, applier and encoders the Runtime and
// CanonEncoder wrappers run. A Stepper is not safe for concurrent use;
// take one per goroutine.
type Stepper struct {
	r *Runtime
	// v and refs are the vector Actions last took and its slot index.
	v    []byte
	refs []slotRef
	// next is the slot index of the successor Apply last wrote.
	next []slotRef
}

// NewStepper returns a stepper over the runtime's states.
func (r *Runtime) NewStepper() *Stepper {
	return &Stepper{r: r, refs: make([]slotRef, r.numSlots), next: make([]slotRef, r.numSlots)}
}

// Actions appends the actions Runtime.Actions returns for st to acts, with
// Msg left empty, and returns them with the state's problems. st's vector
// must not change while Apply still takes its actions.
func (x *Stepper) Actions(acts []Action, st *State) ([]Action, []Problem) {
	x.v = st.v
	x.r.index(x.v, x.refs)
	return x.r.appendActions(acts, st, x.refs, false)
}

// Apply appends the packed vector of the successor that action a of the
// state last passed to Actions reaches to dst, indexing its slots as it
// writes them, and reports whether the successor is its own key: whether
// no unordered slot holds two or more records, so that Encode would
// return its vector.
func (x *Stepper) Apply(dst []byte, a Action) ([]byte, bool) {
	dst = x.r.appendApply(dst, x.v, x.refs, a, x.next)
	for i := range x.r.nets {
		if nl := &x.r.nets[i]; !nl.ordered {
			for _, ref := range x.next[nl.base : nl.base+nl.slots] {
				if ref.n > 1 {
					return dst, false
				}
			}
		}
	}
	return dst, true
}

// AppendEncode appends Runtime.AppendEncode's key of st, the successor the
// last Apply wrote, to dst. st views that successor's bytes or a copy of
// them; the key is written from the slot index Apply wrote, not a new one.
func (x *Stepper) AppendEncode(dst []byte, st *State) []byte {
	return x.r.appendImage(dst, st.v, x.next, nil, nil, true)
}

// AppendPermute appends Runtime.AppendPermute's image of st under pi to
// dst, with st and the slot index as AppendEncode takes them.
func (x *Stepper) AppendPermute(dst []byte, st *State, pi Perm) []byte {
	if pi == nil || pi.IsIdentity() {
		return append(dst, st.v...)
	}
	return x.r.appendPermute(dst, st.v, x.next, pi)
}

// AppendCanonical appends e.AppendCanonical's key of st to dst and returns
// it with sigma's rank and the orbit size, with st and the slot index as
// AppendEncode takes them.
func (x *Stepper) AppendCanonical(e *CanonEncoder, dst []byte, st *State) (key []byte, rank, orbit int) {
	return e.appendCanonical(dst, st.v, x.next)
}

// appendActions appends the enabled actions of st, whose slots refs
// indexes, to acts, decoding each consumed message into Msg when msgs is
// set, and returns them with the state's problems.
func (r *Runtime) appendActions(acts []Action, st *State, refs []slotRef, msgs bool) ([]Action, []Problem) {
	var probs []Problem
	var sbuf [scopeBuf]uint64
	s := r.scope(sbuf[:])
	v := st.v

	// External triggers.
	for i, inst := range r.Insts {
		pl := r.procs[i]
		if len(pl.def.Triggers) == 0 {
			continue
		}
		cands := pl.trig[pl.ctl.get(v[r.procOff[i]:])]
		loaded := false
		for k, trig := range pl.def.Triggers {
			if len(cands[k]) == 0 {
				// The environment simply cannot fire the trigger here.
				continue
			}
			if !loaded {
				r.load(s, v, i)
				loaded = true
			}
			ct, prob := r.match(st, i, Event{Trigger: trig}, cands[k], -1, nil, s)
			if prob != nil {
				// Triggers with ambiguous guards are still an error.
				probs = append(probs, *prob)
				continue
			}
			if ct == nil || ct.t.Defer {
				continue
			}
			acts = append(acts, Action{Inst: inst.Idx, Trans: ct.t, Net: -1, ct: ct})
		}
	}

	// Message deliveries.
	for n := range r.nets {
		nl := &r.nets[n]
		sz := nl.rec.size
		for slot := 0; slot < nl.slots; slot++ {
			ref := refs[nl.base+slot]
			if ref.n == 0 {
				continue
			}
			recs := v[ref.off : ref.off+ref.n*sz]
			limit := ref.n
			if nl.ordered {
				limit = 1
			}
			inst := nl.recv[slot]
			pl := r.procs[inst]
			cands := pl.recv[pl.ctl.get(v[r.procOff[inst]:])][n]
			msgScope := r.load(s, v, inst)
			for pos := 0; pos < limit; pos++ {
				rec := recs[pos*sz : (pos+1)*sz]
				if !nl.ordered && repeats(recs, pos, sz) {
					continue // identical pending messages branch identically
				}
				loadRecord(msgScope, &nl.rec, rec)
				ct, prob := r.match(st, inst, Event{Net: nl.net, MsgVar: "Msg"}, cands, n, rec, s)
				if prob != nil {
					probs = append(probs, *prob)
					continue
				}
				if ct == nil || ct.t.Defer {
					continue // stalled
				}
				a := Action{Inst: inst, Trans: ct.t, Net: n, Slot: slot, Pos: pos, ct: ct}
				if msgs {
					a.Msg = r.decodeMsg(n, rec)
				}
				acts = append(acts, a)
			}
		}
	}
	return acts, probs
}

// repeats reports whether record pos of recs equals an earlier one.
func repeats(recs []byte, pos, sz int) bool {
	rec := recs[pos*sz : (pos+1)*sz]
	for p := 0; p < pos; p++ {
		if bytes.Equal(recs[p*sz:(p+1)*sz], rec) {
			return true
		}
	}
	return false
}

// match finds the unique enabled transition among an event's candidates,
// or a stall, or a problem. s holds the receiver's scope, message fields
// included; rec is the message record on network n (n < 0 for triggers).
func (r *Runtime) match(st *State, inst int, ev Event, cands []*ctrans, n int, rec []byte, s []uint64) (*ctrans, *Problem) {
	if len(cands) == 0 {
		if ev.IsTrigger() {
			return nil, nil
		}
		return nil, r.problem(st, inst, ev, n, rec, UnexpectedMessage, " cannot handle")
	}
	var hit, catchAll *ctrans
	for _, ct := range cands {
		if ct.catchAll {
			// An unguarded stall rule is a lowest-priority catch-all:
			// it applies only when no guarded transition matches.
			catchAll = ct
			continue
		}
		if ct.guard != nil && ct.guard.eval(s) == 0 {
			continue
		}
		if hit != nil {
			return nil, r.problem(st, inst, ev, n, rec, NonDeterministic,
				fmt.Sprintf(": guards %s and %s both enabled", hit.t.GuardString(), ct.t.GuardString()))
		}
		hit = ct
	}
	if hit == nil {
		if catchAll != nil {
			return catchAll, nil
		}
		if ev.IsTrigger() {
			return nil, nil
		}
		return nil, r.problem(st, inst, ev, n, rec, UnexpectedMessage, ": no guard accepts")
	}
	return hit, nil
}

// problem builds a semantics problem at an instance. Its detail names the
// instance and its control state and says why; for an unexpected message
// it goes on to name the message.
func (r *Runtime) problem(st *State, inst int, ev Event, n int, rec []byte, kind ProblemKind, why string) *Problem {
	p := &Problem{Kind: kind, Inst: inst, Event: ev,
		Detail: fmt.Sprintf("%s in state %s%s", r.Insts[inst].Name(), r.CtlOf(st, inst), why)}
	if n >= 0 {
		p.Msg = r.decodeMsg(n, rec)
		if kind == UnexpectedMessage {
			p.Detail += fmt.Sprintf(" %s message %s", ev.Net.Name, r.FormatMsg(ev.Net, p.Msg))
		}
	}
	return p
}

// decodeMsg reads record rec of network n as a message.
func (r *Runtime) decodeMsg(n int, rec []byte) Msg {
	fields := r.nets[n].rec.fields
	m := slices.Grow(Msg(nil), len(fields))
	for j := range fields {
		m = append(m, valueOf(r.Sys.U, fields[j].t, fields[j].get(rec)))
	}
	return m
}

// sent is a record Apply appends to global slot g, at off in its buffer.
type sent struct{ g, off int }

// Apply executes an action of st, one that Actions returned or
// PermuteAction mapped, returning the successor state. The action's
// message is read from the state at (Net, Slot, Pos).
func (r *Runtime) Apply(st *State, a Action) *State {
	var rbuf [slotBuf]slotRef
	return &State{v: r.appendApply(nil, st.v, r.refsFor(st.v, rbuf[:]), a, nil)}
}

// appendApply appends the packed vector of the successor that action a
// reaches from the vector v, whose slots refs indexes, to dst, and fills
// nrefs, when set, with the successor's slot index.
func (r *Runtime) appendApply(dst, v []byte, refs []slotRef, a Action, nrefs []slotRef) []byte {
	pl, ct := r.procs[a.Inst], a.ct
	var sbuf [scopeBuf]uint64
	s := r.scope(sbuf[:])
	msgScope := r.load(s, v, a.Inst)
	consumed := -1
	if a.Net >= 0 {
		nl := &r.nets[a.Net]
		consumed = nl.base + a.Slot
		loadRecord(msgScope, &nl.rec, v[refs[consumed].off+a.Pos*nl.rec.size:])
	}

	// Parallel assignment and sends both read the pre-state scope.
	var ubuf [16]uint64
	vals := ubuf[:0]
	for _, up := range ct.updates {
		vals = append(vals, up.rhs.eval(s))
	}
	var obuf [128]byte
	var pbuf [16]sent
	out, pend := obuf[:0], pbuf[:0]
	for _, cs := range ct.sends {
		nl := &r.nets[cs.net]
		sz := nl.rec.size
		start := len(out)
		out = append(out, make([]byte, sz)...)
		for _, f := range cs.fields {
			nl.rec.fields[f.idx].put(out[start:], f.rhs.eval(s))
		}
		if cs.target == nil {
			slot := 0
			if nl.dest >= 0 {
				slot = int(nl.rec.fields[nl.dest].get(out[start:]))
			}
			pend = append(pend, sent{nl.base + slot, start})
			continue
		}
		// Multicast: one copy of the record per member, routed to it.
		mask := cs.target.eval(s)
		for pid := 0; pid < nl.slots; pid++ {
			if mask&(1<<uint(pid)) == 0 {
				continue
			}
			at := len(out)
			out = append(out, out[start:start+sz]...)
			nl.rec.fields[nl.dest].put(out[at:], uint64(pid))
			pend = append(pend, sent{nl.base + pid, at})
		}
	}

	// Besides the acting instance's block, written last, only the slots
	// that lose or gain a record change: every run of bytes between them
	// is the parent's and is copied with one append. The successor's index
	// is the parent's: a slot before the first touched one keeps its
	// offset, and every later untouched slot moves by shift, the size
	// change of the touched slots before it. g0 is the first slot whose
	// entry is not written yet.
	var tbuf [16]int
	touched := tbuf[:0]
	if consumed >= 0 {
		touched = append(touched, consumed)
	}
	for _, p := range pend {
		touched = append(touched, p.g)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	next := slices.Grow(dst, len(v)+len(out))
	base, from := len(next), 0
	g0, shift := 0, 0
	for _, g := range touched {
		ref, sz := refs[g], r.nets[r.slotNet[g]].rec.size
		next = append(next, v[from:ref.countOff()]...)
		recs := v[ref.off : ref.off+ref.n*sz]
		c := ref.n
		for _, p := range pend {
			if p.g == g {
				c++
			}
		}
		if g == consumed {
			c--
		}
		next = binary.AppendUvarint(next, uint64(c))
		if nrefs != nil {
			for ; g0 < g; g0++ {
				nrefs[g0] = slotRef{refs[g0].off + shift, refs[g0].n}
			}
			nrefs[g], g0 = slotRef{len(next) - base, c}, g+1
		}
		if g == consumed {
			next = append(next, recs[:a.Pos*sz]...)
			next = append(next, recs[(a.Pos+1)*sz:]...)
		} else {
			next = append(next, recs...)
		}
		for _, p := range pend {
			if p.g == g {
				next = append(next, out[p.off:p.off+sz]...)
			}
		}
		from = ref.off + len(recs)
		shift = len(next) - base - from
	}
	next = append(next, v[from:]...)
	for ; g0 < len(nrefs); g0++ {
		nrefs[g0] = slotRef{refs[g0].off + shift, refs[g0].n}
	}
	blk := next[base+r.procOff[a.Inst]:]
	pl.ctl.put(blk, uint64(ct.to))
	for k, up := range ct.updates {
		pl.block.fields[up.v].put(blk, vals[k])
	}
	return next
}

// Encode renders a state as its key: the packed vector with every
// unordered slot's records sorted. Keys are equal exactly when the states
// are equal up to the order of unordered networks.
func (r *Runtime) Encode(st *State) string {
	var kbuf [256]byte
	return string(r.AppendEncode(kbuf[:0], st))
}

// AppendEncode appends the key Encode returns to dst.
func (r *Runtime) AppendEncode(dst []byte, st *State) []byte {
	var rbuf [slotBuf]slotRef
	return r.appendImage(dst, st.v, r.refsFor(st.v, rbuf[:]), nil, nil, true)
}

// FormatMsg renders a message with field names.
func (r *Runtime) FormatMsg(net *Network, msg Msg) string {
	parts := make([]string, len(net.Msg.Fields))
	for i, f := range net.Msg.Fields {
		parts[i] = fmt.Sprintf("%s:%s", f.Name, msg[i])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FormatAction renders an action for counterexample traces.
func (r *Runtime) FormatAction(a Action) string {
	inst := r.Insts[a.Inst]
	var evt string
	if a.Net < 0 {
		evt = a.Trans.Event.Trigger
	} else {
		net := r.Sys.Networks[a.Net]
		evt = fmt.Sprintf("recv %s %s", net.Name, r.FormatMsg(net, a.Msg))
	}
	return fmt.Sprintf("%s: %s [%s -> %s]", inst.Name(), evt, a.Trans.From, a.Trans.To)
}

// FormatState renders a state for counterexample traces.
func (r *Runtime) FormatState(st *State) string {
	var sb strings.Builder
	for i, inst := range r.Insts {
		fmt.Fprintf(&sb, "%s{%s", inst.Name(), r.CtlOf(st, i))
		for j, v := range inst.Def.Vars {
			fmt.Fprintf(&sb, " %s=%s", v.Name, r.VarAt(st, i, j))
		}
		sb.WriteString("} ")
	}
	for n, net := range r.Sys.Networks {
		for slot, msgs := range r.Pending(st, n) {
			for _, m := range msgs {
				fmt.Fprintf(&sb, "%s[%d]%s ", net.Name, slot, r.FormatMsg(net, m))
			}
		}
	}
	return strings.TrimSpace(sb.String())
}

// InstancesOf returns the instance indices of a definition.
func (r *Runtime) InstancesOf(d *ProcDef) []int { return r.byDef[d] }

// VarOf reads a process variable of an instance in a state.
func (r *Runtime) VarOf(st *State, instIdx int, name string) expr.Value {
	return r.VarAt(st, instIdx, r.varIndex(instIdx, name))
}

func (r *Runtime) varIndex(instIdx int, name string) int {
	inst := r.Insts[instIdx]
	i := inst.Def.VarIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("efsm: instance %s has no variable %s", inst.Name(), name))
	}
	return i
}

// VarAt reads process variable j, the definition's Vars[j], of an
// instance in a state.
func (r *Runtime) VarAt(st *State, instIdx, j int) expr.Value {
	f := &r.procs[instIdx].block.fields[j]
	return valueOf(r.Sys.U, f.t, f.get(st.v[r.procOff[instIdx]:]))
}

// CtlOf reads an instance's control-state name in a state.
func (r *Runtime) CtlOf(st *State, instIdx int) string {
	return r.procs[instIdx].def.States.Values[r.CtlOrd(st, instIdx)]
}

// CtlOrd reads an instance's control-state ordinal in a state: the
// position of CtlOf's name in the definition's States.
func (r *Runtime) CtlOrd(st *State, instIdx int) int {
	return int(r.procs[instIdx].ctl.get(st.v[r.procOff[instIdx]:]))
}

// Pending reads network n's pending messages in a state, per receiver
// slot in arrival order. Static routes have one slot; by-field routes
// have one slot per PID.
func (r *Runtime) Pending(st *State, n int) [][]Msg {
	nl := &r.nets[n]
	refs := r.refsFor(st.v, nil)
	out := make([][]Msg, nl.slots)
	for slot := range out {
		ref := refs[nl.base+slot]
		for p := 0; p < ref.n; p++ {
			out[slot] = append(out[slot], r.decodeMsg(n, st.v[ref.off+p*nl.rec.size:]))
		}
	}
	return out
}

// SetCtl sets an instance's control state by name.
func (r *Runtime) SetCtl(st *State, instIdx int, state string) {
	pl := r.procs[instIdx]
	ord := pl.def.States.Ord(state)
	if ord < 0 {
		panic(fmt.Sprintf("efsm: instance %s has no control state %s", r.Insts[instIdx].Name(), state))
	}
	pl.ctl.put(st.v[r.procOff[instIdx]:], uint64(ord))
}

// SetVar sets a process variable of an instance.
func (r *Runtime) SetVar(st *State, instIdx int, name string, val expr.Value) {
	j := r.varIndex(instIdx, name)
	f := &r.procs[instIdx].block.fields[j]
	if val.Type() != f.t {
		panic(fmt.Sprintf("efsm: variable %s is %s, not %s", name, f.t, val.Type()))
	}
	f.put(st.v[r.procOff[instIdx]:], payload(val))
}

// SetPending replaces the pending messages of one receiver slot of
// network n, in arrival order.
func (r *Runtime) SetPending(st *State, n, slot int, msgs ...Msg) {
	nl := &r.nets[n]
	ref := r.refsFor(st.v, nil)[nl.base+slot]
	v := binary.AppendUvarint(append([]byte(nil), st.v[:ref.countOff()]...), uint64(len(msgs)))
	for _, m := range msgs {
		start := len(v)
		v = append(v, make([]byte, nl.rec.size)...)
		for j := range nl.rec.fields {
			if m[j].Type() != nl.rec.fields[j].t {
				panic(fmt.Sprintf("efsm: %s field %d is %s, not %s",
					nl.net.Name, j, nl.rec.fields[j].t, m[j].Type()))
			}
			nl.rec.fields[j].put(v[start:], payload(m[j]))
		}
	}
	st.v = append(v, st.v[ref.off+ref.n*nl.rec.size:]...)
}
