// Package efsm models distributed protocols the way TRANSIT specifies them
// (§3): a protocol skeleton — processes with control states and typed
// process variables, networks with ordering guarantees, message types — and
// behaviour as transitions with guards, parallel-assignment updates, and
// outbound messages. It also defines the concolic snippet structures that
// the synthesis tool in internal/core completes into full transitions, and
// a deterministic execution runtime used by the model checker in
// internal/mc.
package efsm

import (
	"fmt"

	"transit/internal/expr"
)

// SelfVar is the implicit PID-typed variable bound, in every evaluation
// scope of a replicated process instance, to that instance's own identity.
const SelfVar = "Self"

// NetKind is a network's ordering guarantee.
type NetKind int

const (
	// Ordered networks deliver point-to-point in FIFO order.
	Ordered NetKind = iota
	// Unordered networks may deliver pending messages in any order.
	Unordered
)

func (k NetKind) String() string {
	if k == Ordered {
		return "ordered"
	}
	return "unordered"
}

// Field is a typed message field.
type Field struct {
	Name string
	T    expr.Type
}

// MessageType is the struct type of messages carried by one network.
// Networks that carry several logical message kinds discriminate with an
// enum-typed field (conventionally MType).
type MessageType struct {
	Name   string
	Fields []Field
}

// FieldIndex returns the index of a field, or -1.
func (m *MessageType) FieldIndex(name string) int {
	for i, f := range m.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// RouteMode says how a network finds the receiving process instance.
type RouteMode int

const (
	// RouteStatic delivers every message to the unique instance of the
	// receiver definition (e.g. the directory).
	RouteStatic RouteMode = iota
	// RouteByField reads a PID-typed message field and delivers to that
	// instance of the (replicated) receiver definition.
	RouteByField
)

// Network is a typed channel between processes.
type Network struct {
	Name     string
	Kind     NetKind
	Msg      *MessageType
	Receiver *ProcDef
	Route    RouteMode
	// DestField names the PID field used when Route == RouteByField.
	DestField string
}

// Event is a transition trigger: either the receipt of a message on a
// network (bound to a local message variable) or a named external trigger
// (e.g. a core issuing a Load).
type Event struct {
	// Net is non-nil for message events.
	Net *Network
	// MsgVar is the local name binding the received message's fields
	// (fields appear in scope as "MsgVar.Field").
	MsgVar string
	// Trigger is the trigger name for external events (Net == nil).
	Trigger string
}

// IsTrigger reports whether the event is an external trigger.
func (e Event) IsTrigger() bool { return e.Net == nil }

// Key is a stable identity for grouping transitions by event.
func (e Event) Key() string {
	if e.IsTrigger() {
		return "trigger:" + e.Trigger
	}
	return "net:" + e.Net.Name
}

func (e Event) String() string {
	if e.IsTrigger() {
		return e.Trigger
	}
	return fmt.Sprintf("%s %s", e.Net.Name, e.MsgVar)
}

// Update is one parallel assignment to a process variable.
type Update struct {
	Var string
	Rhs expr.Expr
}

// SendField assigns one outbound message field.
type SendField struct {
	Field string
	Rhs   expr.Expr
}

// Send emits one message on a network — or, when TargetSet is non-nil, one
// copy per member of the evaluated PID set (a multicast, e.g. directory
// invalidations to all sharers). Field right-hand sides are evaluated in
// the pre-state scope; for multicasts the network's routing field is set
// per copy and must not be assigned in Fields.
type Send struct {
	Net       *Network
	MsgVar    string
	Fields    []SendField
	TargetSet expr.Expr
}

// Transition is a completed (fully symbolic) EFSM transition: from a
// control state, on an event, guarded by a Boolean expression over the
// scope, move to a control state, apply updates, and send messages.
type Transition struct {
	From  string
	Event Event
	// Guard is a Boolean expression over process variables, Self, and the
	// event's message fields; nil means true.
	Guard expr.Expr
	To    string
	// Defer marks a stall: when the guard holds, the message is left in
	// the network and nothing happens (used by blocking directories).
	Defer   bool
	Updates []Update
	Sends   []Send
}

// GuardString renders the guard for display.
func (t *Transition) GuardString() string {
	if t.Guard == nil {
		return "true"
	}
	return expr.Pretty(t.Guard)
}

// ProcDef is a process definition (an EFSM skeleton plus, once completed,
// its transitions). Replicated definitions (caches) are instantiated once
// per PID; singleton definitions (the directory) once.
type ProcDef struct {
	Name string
	// States is the control-state enumeration.
	States *expr.EnumType
	// Init is the initial control state name.
	Init string
	// Vars are the process variables, initialized to ZeroOf unless
	// InitVals overrides.
	Vars     []*expr.Var
	InitVals expr.Env
	// Replicated marks one-instance-per-PID definitions.
	Replicated bool
	// Asymmetric opts a replicated definition out of PID symmetry: set it
	// when instances are intentionally distinguished by identity (e.g. a
	// designated leader), so the model checker's symmetry reduction
	// disables itself instead of canonicalizing unsoundly. See
	// System.PIDSymmetric.
	Asymmetric bool
	// Triggers lists external trigger names this process reacts to.
	Triggers []string
	// Transitions is the completed behaviour.
	Transitions []*Transition
}

// VarIndex returns the index of a process variable, or -1.
func (d *ProcDef) VarIndex(name string) int {
	for i, v := range d.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Var returns the declared variable, or nil.
func (d *ProcDef) Var(name string) *expr.Var {
	if i := d.VarIndex(name); i >= 0 {
		return d.Vars[i]
	}
	return nil
}

// StateSet returns a set of control states as a slice indexed by the
// ordinals Runtime.CtlOrd reads, true at each named state. It panics on a
// state d lacks, as Runtime.SetCtl does.
func (d *ProcDef) StateSet(states ...string) []bool {
	set := make([]bool, len(d.States.Values))
	for _, s := range states {
		ord := d.States.Ord(s)
		if ord < 0 {
			panic(fmt.Sprintf("efsm: process %s has no control state %s", d.Name, s))
		}
		set[ord] = true
	}
	return set
}

// System is a complete protocol instance: a universe, the networks, and the
// process definitions. Exactly one replicated definition is instantiated
// NumCaches times; singleton definitions once each.
type System struct {
	Name     string
	U        *expr.Universe
	Networks []*Network
	Defs     []*ProcDef
}

// Validate checks structural well-formedness: state enums and initial
// states exist, transition endpoints name real states, update targets name
// real variables, send fields exist and type-check, routes are resolvable,
// and guards are Boolean.
func (s *System) Validate() error {
	if s.U == nil {
		return fmt.Errorf("efsm: system %s has no universe", s.Name)
	}
	netByName := map[string]*Network{}
	for _, n := range s.Networks {
		if _, dup := netByName[n.Name]; dup {
			return fmt.Errorf("efsm: duplicate network %s", n.Name)
		}
		netByName[n.Name] = n
		if n.Msg == nil || n.Receiver == nil {
			return fmt.Errorf("efsm: network %s lacks message type or receiver", n.Name)
		}
		if n.Route == RouteByField {
			i := n.Msg.FieldIndex(n.DestField)
			if i < 0 {
				return fmt.Errorf("efsm: network %s routes by missing field %s", n.Name, n.DestField)
			}
			if n.Msg.Fields[i].T != expr.PIDType {
				return fmt.Errorf("efsm: network %s routing field %s is not PID-typed", n.Name, n.DestField)
			}
			if !n.Receiver.Replicated {
				return fmt.Errorf("efsm: network %s routes by field to singleton %s", n.Name, n.Receiver.Name)
			}
		} else if n.Receiver.Replicated {
			return fmt.Errorf("efsm: network %s routes statically to replicated %s", n.Name, n.Receiver.Name)
		}
	}
	for _, d := range s.Defs {
		if d.States == nil {
			return fmt.Errorf("efsm: process %s has no state enum", d.Name)
		}
		if d.States.Ord(d.Init) < 0 {
			return fmt.Errorf("efsm: process %s initial state %s undeclared", d.Name, d.Init)
		}
		for name := range d.InitVals {
			if d.VarIndex(name) < 0 {
				return fmt.Errorf("efsm: process %s initializes unknown variable %s", d.Name, name)
			}
		}
		for _, t := range d.Transitions {
			if err := s.validateTransition(d, t); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *System) validateTransition(d *ProcDef, t *Transition) error {
	ctx := fmt.Sprintf("efsm: %s transition (%s, %s)", d.Name, t.From, t.Event)
	if d.States.Ord(t.From) < 0 {
		return fmt.Errorf("%s: unknown source state", ctx)
	}
	if !t.Defer && d.States.Ord(t.To) < 0 {
		return fmt.Errorf("%s: unknown target state %s", ctx, t.To)
	}
	if t.Guard != nil && t.Guard.Type() != expr.BoolType {
		return fmt.Errorf("%s: guard is not Boolean", ctx)
	}
	scope := s.ScopeOf(d, t.Event)
	check := func(e expr.Expr, what string) error {
		for _, name := range expr.Vars(e) {
			if _, ok := scope[name]; !ok {
				return fmt.Errorf("%s: %s references %s outside scope", ctx, what, name)
			}
		}
		return nil
	}
	if t.Guard != nil {
		if err := check(t.Guard, "guard"); err != nil {
			return err
		}
	}
	for _, u := range t.Updates {
		v := d.Var(u.Var)
		if v == nil {
			return fmt.Errorf("%s: update to unknown variable %s", ctx, u.Var)
		}
		if u.Rhs.Type() != v.VT {
			return fmt.Errorf("%s: update %s has type %s, want %s", ctx, u.Var, u.Rhs.Type(), v.VT)
		}
		if err := check(u.Rhs, "update "+u.Var); err != nil {
			return err
		}
	}
	for _, snd := range t.Sends {
		if snd.TargetSet != nil {
			if snd.TargetSet.Type() != expr.SetType {
				return fmt.Errorf("%s: multicast target on %s is not Set-typed", ctx, snd.Net.Name)
			}
			if snd.Net.Route != RouteByField {
				return fmt.Errorf("%s: multicast on statically routed network %s", ctx, snd.Net.Name)
			}
			if err := check(snd.TargetSet, "multicast target"); err != nil {
				return err
			}
		}
		for _, f := range snd.Fields {
			if snd.TargetSet != nil && f.Field == snd.Net.DestField {
				return fmt.Errorf("%s: multicast on %s assigns routing field %s", ctx, snd.Net.Name, f.Field)
			}
			i := snd.Net.Msg.FieldIndex(f.Field)
			if i < 0 {
				return fmt.Errorf("%s: send on %s sets unknown field %s", ctx, snd.Net.Name, f.Field)
			}
			if f.Rhs.Type() != snd.Net.Msg.Fields[i].T {
				return fmt.Errorf("%s: send field %s has type %s, want %s",
					ctx, f.Field, f.Rhs.Type(), snd.Net.Msg.Fields[i].T)
			}
			if err := check(f.Rhs, "send field "+f.Field); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScopeOf returns the evaluation scope — variable name to declared type —
// for a process handling an event: process variables, Self, and, for
// message events, the dotted message fields.
func (s *System) ScopeOf(d *ProcDef, ev Event) map[string]expr.Type {
	scope := make(map[string]expr.Type, len(d.Vars)+4)
	for _, v := range d.Vars {
		scope[v.Name] = v.VT
	}
	scope[SelfVar] = expr.PIDType
	if !ev.IsTrigger() {
		for _, f := range ev.Net.Msg.Fields {
			scope[ev.MsgVar+"."+f.Name] = f.T
		}
	}
	return scope
}

// ScopeVars is ScopeOf as a deterministic variable list (declaration
// order: process vars, Self, message fields) — the V handed to the
// synthesizer.
func (s *System) ScopeVars(d *ProcDef, ev Event) []*expr.Var {
	out := make([]*expr.Var, 0, len(d.Vars)+4)
	out = append(out, d.Vars...)
	out = append(out, expr.V(SelfVar, expr.PIDType))
	if !ev.IsTrigger() {
		for _, f := range ev.Net.Msg.Fields {
			out = append(out, expr.V(ev.MsgVar+"."+f.Name, f.T))
		}
	}
	return out
}
