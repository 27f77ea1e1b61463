package lang

import (
	"fmt"
	"regexp"
	"strings"

	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
)

// Protocol is a fully elaborated TRANSIT program: the skeleton, the
// synthesis vocabulary, the snippet set, and the declared invariants.
// Feed Snippets through core.Complete over Sys, then model check.
type Protocol struct {
	Name       string
	Sys        *efsm.System
	Vocab      *expr.Vocabulary
	Snippets   []*efsm.Snippet
	Invariants []mc.Invariant
}

// Build parses and elaborates a TRANSIT program for a given cache count.
func Build(src string, numCaches int) (*Protocol, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return BuildFile(f, numCaches)
}

// BuildFile elaborates a parsed program.
func BuildFile(f *File, numCaches int) (*Protocol, error) {
	b := &builder{file: f}
	return b.build(numCaches)
}

type builder struct {
	file     *File
	u        *expr.Universe
	enums    map[string]*expr.EnumType // user enums by name
	literals map[string][]*expr.EnumType
	msgs     map[string]*efsm.MessageType
	procs    map[string]*efsm.ProcDef
	nets     map[string]*efsm.Network
	sys      *efsm.System
}

var pidLitRe = regexp.MustCompile(`^C([0-9]+)$`)

func (b *builder) build(numCaches int) (*Protocol, error) {
	u, err := expr.NewUniverseWidth(numCaches, expr.DefaultIntWidth)
	if err != nil {
		return nil, err
	}
	b.u = u
	b.enums = map[string]*expr.EnumType{}
	b.literals = map[string][]*expr.EnumType{}
	b.msgs = map[string]*efsm.MessageType{}
	b.procs = map[string]*efsm.ProcDef{}
	b.nets = map[string]*efsm.Network{}

	for _, d := range b.file.Enums {
		e, err := u.DeclareEnum(d.Name, d.Values...)
		if err != nil {
			return nil, errf(d.Pos, "%v", err)
		}
		b.enums[d.Name] = e
		for _, v := range d.Values {
			b.literals[v] = append(b.literals[v], e)
		}
	}
	for _, d := range b.file.Messages {
		if _, dup := b.msgs[d.Name]; dup {
			return nil, errf(d.Pos, "duplicate message type %s", d.Name)
		}
		mt := &efsm.MessageType{Name: d.Name}
		for _, fd := range d.Fields {
			t, err := b.typeOf(fd.Type)
			if err != nil {
				return nil, err
			}
			mt.Fields = append(mt.Fields, efsm.Field{Name: fd.Name, T: t})
		}
		b.msgs[d.Name] = mt
	}
	for _, d := range b.file.Processes {
		if _, dup := b.procs[d.Name]; dup {
			return nil, errf(d.Pos, "duplicate process %s", d.Name)
		}
		if len(d.States) == 0 {
			return nil, errf(d.Pos, "process %s declares no states", d.Name)
		}
		states, err := u.DeclareEnum(d.Name+"$State", d.States...)
		if err != nil {
			return nil, errf(d.Pos, "%v", err)
		}
		pd := &efsm.ProcDef{
			Name: d.Name, States: states, Init: d.Init,
			Replicated: d.Replicated, Triggers: d.Triggers,
		}
		for _, vd := range d.Vars {
			t, err := b.typeOf(vd.Type)
			if err != nil {
				return nil, err
			}
			pd.Vars = append(pd.Vars, expr.V(vd.Name, t))
		}
		b.procs[d.Name] = pd
	}
	var networks []*efsm.Network
	for _, d := range b.file.Networks {
		mt, ok := b.msgs[d.MsgType]
		if !ok {
			return nil, errf(d.Pos, "network %s carries unknown message type %s", d.Name, d.MsgType)
		}
		recv, ok := b.procs[d.Receiver]
		if !ok {
			return nil, errf(d.Pos, "network %s delivers to unknown process %s", d.Name, d.Receiver)
		}
		kind := efsm.Unordered
		if d.Ordered {
			kind = efsm.Ordered
		}
		net := &efsm.Network{Name: d.Name, Kind: kind, Msg: mt, Receiver: recv}
		if d.ByField != "" {
			net.Route = efsm.RouteByField
			net.DestField = d.ByField
		}
		if _, dup := b.nets[d.Name]; dup {
			return nil, errf(d.Pos, "duplicate network %s", d.Name)
		}
		b.nets[d.Name] = net
		networks = append(networks, net)
	}

	var defs []*efsm.ProcDef
	for _, d := range b.file.Processes {
		defs = append(defs, b.procs[d.Name])
	}
	b.sys = &efsm.System{Name: b.file.Name, U: u, Networks: networks, Defs: defs}

	var snippets []*efsm.Snippet
	for _, pd := range b.file.Processes {
		for i, td := range pd.Transitions {
			sn, err := b.transition(pd, td, i)
			if err != nil {
				return nil, err
			}
			snippets = append(snippets, sn)
		}
	}

	var invs []mc.Invariant
	for _, d := range b.file.Invariants {
		inv, err := b.invariant(d)
		if err != nil {
			return nil, err
		}
		invs = append(invs, inv)
	}

	var userEnums []*expr.EnumType
	for _, d := range b.file.Enums {
		userEnums = append(userEnums, b.enums[d.Name])
	}
	vocab := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums:             userEnums,
		WithEnumConstants: true,
		WithSetLiterals:   true,
		WithoutEnumIte:    true,
	})

	proto := &Protocol{Name: b.file.Name, Sys: b.sys, Vocab: vocab,
		Snippets: snippets, Invariants: invs}
	// Per-snippet validation happens in core.Complete; validate the
	// skeleton structure here.
	if err := b.sys.Validate(); err != nil {
		return nil, err
	}
	return proto, nil
}

func (b *builder) typeOf(ref TypeRef) (expr.Type, error) {
	t, err := TypeByName(b.u, ref.Name)
	if err != nil {
		return expr.Type{}, errf(ref.Pos, "%v", err)
	}
	return t, nil
}

// TypeByName resolves a surface type name: Bool, Int, PID, Set, or an
// enum declared in u.
func TypeByName(u *expr.Universe, name string) (expr.Type, error) {
	switch name {
	case "Bool":
		return expr.BoolType, nil
	case "Int":
		return expr.IntType, nil
	case "PID":
		return expr.PIDType, nil
	case "Set":
		return expr.SetType, nil
	}
	if e, ok := u.Enum(name); ok {
		return expr.EnumOf(e), nil
	}
	return expr.Type{}, fmt.Errorf("unknown type %q", name)
}

// scope is the typing environment for one transition's expressions.
type scope struct {
	// vars maps readable names (process vars, Self, in-message fields) to
	// types.
	vars map[string]expr.Type
	// primed maps primed-target names (process vars and out-message
	// fields) to types.
	primed map[string]expr.Type
	// primedSeen collects the primed targets referenced by the current
	// post.
	primedSeen map[string]bool
}

func (b *builder) transition(pd *ProcessDecl, td *TransitionDecl, idx int) (*efsm.Snippet, error) {
	proc := b.procs[pd.Name]
	sn := &efsm.Snippet{
		Label:   fmt.Sprintf("%s#%d(%s)", pd.Name, idx, td.From),
		Process: pd.Name,
		From:    td.From,
		To:      td.To,
		Defer:   td.Stall,
	}
	// Event.
	if td.Event.Net != "" {
		net, ok := b.nets[td.Event.Net]
		if !ok {
			return nil, errf(td.Event.Pos, "unknown network %s", td.Event.Net)
		}
		sn.Event = efsm.Event{Net: net, MsgVar: td.Event.MsgVar}
	} else {
		found := false
		for _, trig := range proc.Triggers {
			if trig == td.Event.Trigger {
				found = true
				break
			}
		}
		if !found {
			return nil, errf(td.Event.Pos, "process %s declares no trigger %s", pd.Name, td.Event.Trigger)
		}
		sn.Event = efsm.Event{Trigger: td.Event.Trigger}
	}

	sc := &scope{vars: map[string]expr.Type{}, primed: map[string]expr.Type{}}
	for _, v := range proc.Vars {
		sc.vars[v.Name] = v.VT
		sc.primed[v.Name] = v.VT
	}
	sc.vars[efsm.SelfVar] = expr.PIDType
	if sn.Event.Net != nil {
		for _, f := range sn.Event.Net.Msg.Fields {
			sc.vars[sn.Event.MsgVar+"."+f.Name] = f.T
		}
	}

	// Sends.
	for _, sd := range td.Sends {
		net, ok := b.nets[sd.Net]
		if !ok {
			return nil, errf(sd.Pos, "unknown network %s", sd.Net)
		}
		spec := efsm.SendSpec{Net: net, MsgVar: sd.MsgVar}
		if sd.Target != nil {
			tgt, err := b.elab(sd.Target, sc, false)
			if err != nil {
				return nil, err
			}
			if tgt.Type() != expr.SetType {
				return nil, errf(sd.Target.Position(), "multicast target must be Set-typed, got %s", tgt.Type())
			}
			spec.TargetSet = tgt
		}
		for _, f := range net.Msg.Fields {
			if sd.Target != nil && f.Name == net.DestField {
				continue
			}
			sc.primed[sd.MsgVar+"."+f.Name] = f.T
		}
		sn.Sends = append(sn.Sends, spec)
	}

	// Guard.
	if td.Guard != nil {
		g, err := b.elab(td.Guard, sc, false)
		if err != nil {
			return nil, err
		}
		if g.Type() != expr.BoolType {
			return nil, errf(td.Guard.Position(), "guard must be Boolean, got %s", g.Type())
		}
		sn.Guard = g
	}

	// Cases.
	for _, cd := range td.Cases {
		c := efsm.SnippetCase{}
		if cd.Pre != nil {
			pre, err := b.elab(cd.Pre, sc, false)
			if err != nil {
				return nil, err
			}
			if pre.Type() != expr.BoolType {
				return nil, errf(cd.Pre.Position(), "precondition must be Boolean, got %s", pre.Type())
			}
			c.Pre = pre
		}
		for _, pn := range cd.Posts {
			sc.primedSeen = map[string]bool{}
			post, err := b.elab(pn, sc, true)
			if err != nil {
				return nil, err
			}
			if post.Type() != expr.BoolType {
				return nil, errf(pn.Position(), "post-condition must be Boolean, got %s", post.Type())
			}
			if len(sc.primedSeen) != 1 {
				return nil, errf(pn.Position(),
					"a post-condition must constrain exactly one primed variable, found %d", len(sc.primedSeen))
			}
			var target string
			for t := range sc.primedSeen {
				target = t
			}
			c.Posts = append(c.Posts, efsm.Post{Target: target, Constraint: post})
		}
		sn.Cases = append(sn.Cases, c)
	}
	return sn, nil
}

func (b *builder) invariant(d *InvariantDecl) (mc.Invariant, error) {
	proc, ok := b.procs[d.Proc]
	if !ok {
		return mc.Invariant{}, errf(d.Pos, "invariant names unknown process %s", d.Proc)
	}
	checkStates := func(states []string) error {
		for _, s := range states {
			if proc.States.Ord(s) < 0 {
				return errf(d.Pos, "invariant names unknown state %s of %s", s, d.Proc)
			}
		}
		return nil
	}
	switch d.Kind {
	case "atmostone":
		if err := checkStates(d.States); err != nil {
			return mc.Invariant{}, err
		}
		return mc.AtMostOne(proc, d.States...), nil
	case "swmr":
		if err := checkStates(d.Writers); err != nil {
			return mc.Invariant{}, err
		}
		if err := checkStates(d.Readers); err != nil {
			return mc.Invariant{}, err
		}
		return mc.SWMR(proc, d.Writers, d.Readers), nil
	}
	return mc.Invariant{}, errf(d.Pos, "unknown invariant form %s", d.Kind)
}

// elab resolves and type-checks an expression. allowPrimed permits primed
// identifiers (post-conditions only).
func (b *builder) elab(n ExprNode, sc *scope, allowPrimed bool) (expr.Expr, error) {
	switch e := n.(type) {
	case *IntExpr:
		return expr.IntC(b.u, e.Val), nil
	case *IdentExpr:
		return b.elabIdent(e, sc, allowPrimed)
	case *SetExpr:
		out := expr.Expr(expr.NewConst(expr.SetVal(0)))
		for _, el := range e.Elems {
			pe, err := b.elab(el, sc, false)
			if err != nil {
				return nil, err
			}
			if pe.Type() != expr.PIDType {
				return nil, errf(el.Position(), "set literal element must be PID, got %s", pe.Type())
			}
			out = expr.SetAdd(out, pe)
		}
		return out, nil
	case *UnExpr:
		inner, err := b.elab(e.E, sc, allowPrimed)
		if err != nil {
			return nil, err
		}
		if inner.Type() != expr.BoolType {
			return nil, errf(e.Pos, "! applies to Bool, got %s", inner.Type())
		}
		return expr.Not(inner), nil
	case *BinExpr:
		return b.elabBin(e, sc, allowPrimed)
	case *CallExpr:
		return b.elabCall(e, sc, allowPrimed)
	}
	return nil, errf(n.Position(), "unsupported expression")
}

func (b *builder) elabIdent(e *IdentExpr, sc *scope, allowPrimed bool) (expr.Expr, error) {
	name := strings.Join(e.Parts, ".")
	if e.Primed {
		if !allowPrimed {
			return nil, errf(e.Pos, "primed variable %s' outside a post-condition", name)
		}
		t, ok := sc.primed[name]
		if !ok {
			return nil, errf(e.Pos, "%s is not an assignable variable or output field", name)
		}
		sc.primedSeen[name] = true
		return expr.V(efsm.Prime(name), t), nil
	}
	if t, ok := sc.vars[name]; ok {
		return expr.V(name, t), nil
	}
	if len(e.Parts) == 2 {
		return nil, errf(e.Pos, "unknown message field %s", name)
	}
	// Enum literal?
	if es := b.literals[name]; len(es) == 1 {
		return expr.EnumC(es[0], name), nil
	} else if len(es) > 1 {
		return nil, errf(e.Pos, "enum literal %s is ambiguous across %d enums", name, len(es))
	}
	// Builtin constants.
	switch name {
	case "true":
		return expr.True(), nil
	case "false":
		return expr.False(), nil
	}
	// Concrete PID literal C<k>.
	if m := pidLitRe.FindStringSubmatch(name); m != nil {
		var k int
		fmt.Sscanf(m[1], "%d", &k)
		if k >= b.u.NumCaches() {
			return nil, errf(e.Pos, "PID literal %s out of range for %d caches", name, b.u.NumCaches())
		}
		return expr.PIDC(k), nil
	}
	return nil, errf(e.Pos, "unknown identifier %s", name)
}

func (b *builder) elabBin(e *BinExpr, sc *scope, allowPrimed bool) (expr.Expr, error) {
	l, err := b.elab(e.L, sc, allowPrimed)
	if err != nil {
		return nil, err
	}
	r, err := b.elab(e.R, sc, allowPrimed)
	if err != nil {
		return nil, err
	}
	needInt := func() error {
		if l.Type() != expr.IntType || r.Type() != expr.IntType {
			return errf(e.Pos, "operator %s needs Int operands, got %s and %s", e.Op, l.Type(), r.Type())
		}
		return nil
	}
	switch e.Op {
	case tokEq, tokNeq:
		if l.Type() != r.Type() {
			return nil, errf(e.Pos, "comparison of mismatched types %s and %s", l.Type(), r.Type())
		}
		if e.Op == tokEq {
			return expr.Eq(l, r), nil
		}
		return expr.Neq(l, r), nil
	case tokAnd, tokOr:
		if l.Type() != expr.BoolType || r.Type() != expr.BoolType {
			return nil, errf(e.Pos, "operator %s needs Bool operands, got %s and %s", e.Op, l.Type(), r.Type())
		}
		if e.Op == tokAnd {
			return expr.And(l, r), nil
		}
		return expr.Or(l, r), nil
	case tokLt, tokLe, tokGt, tokGe:
		if err := needInt(); err != nil {
			return nil, err
		}
		switch e.Op {
		case tokLt:
			return expr.Lt(l, r), nil
		case tokLe:
			return expr.Le(l, r), nil
		case tokGt:
			return expr.Gt(l, r), nil
		default:
			return expr.Ge(l, r), nil
		}
	case tokPlus, tokMinus:
		if err := needInt(); err != nil {
			return nil, err
		}
		if e.Op == tokPlus {
			return expr.Add(l, r), nil
		}
		return expr.Sub(l, r), nil
	}
	return nil, errf(e.Pos, "unsupported operator %s", e.Op)
}

// builtin call signatures; T stands for "any type, both args equal".
var callSigs = map[string][]string{
	"add": {"Int", "Int"}, "sub": {"Int", "Int"},
	"inc": {"Int"}, "dec": {"Int"},
	"setadd": {"Set", "PID"}, "setsize": {"Set"},
	"setunion": {"Set", "Set"}, "setinter": {"Set", "Set"},
	"setminus": {"Set", "Set"}, "setof": {"PID"},
	"setcontains": {"Set", "PID"}, "subseteq": {"Set", "Set"},
	"iszero": {"Int"}, "ge": {"Int", "Int"}, "gt": {"Int", "Int"},
	"and": {"Bool", "Bool"}, "or": {"Bool", "Bool"}, "not": {"Bool"},
	"equals": {"T", "T"}, "ite": {"Bool", "T", "T"},
	"numcaches": {},
}

func (b *builder) elabCall(e *CallExpr, sc *scope, allowPrimed bool) (expr.Expr, error) {
	sig, ok := callSigs[e.Name]
	if !ok {
		return nil, errf(e.Pos, "unknown function %s", e.Name)
	}
	if len(e.Args) != len(sig) {
		return nil, errf(e.Pos, "%s expects %d arguments, got %d", e.Name, len(sig), len(e.Args))
	}
	args := make([]expr.Expr, len(e.Args))
	for i, a := range e.Args {
		ea, err := b.elab(a, sc, allowPrimed)
		if err != nil {
			return nil, err
		}
		args[i] = ea
	}
	check := func(i int, want expr.Type) error {
		if args[i].Type() != want {
			return errf(e.Args[i].Position(), "%s argument %d must be %s, got %s",
				e.Name, i+1, want, args[i].Type())
		}
		return nil
	}
	for i, s := range sig {
		var want expr.Type
		switch s {
		case "Int":
			want = expr.IntType
		case "Set":
			want = expr.SetType
		case "PID":
			want = expr.PIDType
		case "Bool":
			want = expr.BoolType
		case "T":
			continue
		}
		if s != "T" {
			if err := check(i, want); err != nil {
				return nil, err
			}
		}
	}
	switch e.Name {
	case "add":
		return expr.Add(args[0], args[1]), nil
	case "sub":
		return expr.Sub(args[0], args[1]), nil
	case "inc":
		return expr.Inc(args[0]), nil
	case "dec":
		return expr.Dec(args[0]), nil
	case "setadd":
		return expr.SetAdd(args[0], args[1]), nil
	case "setsize":
		return expr.Card(args[0]), nil
	case "setunion":
		return expr.SetUnion(args[0], args[1]), nil
	case "setinter":
		return expr.SetInter(args[0], args[1]), nil
	case "setminus":
		return expr.SetMinus(args[0], args[1]), nil
	case "setof":
		return expr.Singleton(args[0]), nil
	case "setcontains":
		return expr.SetContains(args[0], args[1]), nil
	case "subseteq":
		return expr.SubsetEq(args[0], args[1]), nil
	case "iszero":
		return expr.IsZero(args[0]), nil
	case "ge":
		return expr.Ge(args[0], args[1]), nil
	case "gt":
		return expr.Gt(args[0], args[1]), nil
	case "and":
		return expr.And(args[0], args[1]), nil
	case "or":
		return expr.Or(args[0], args[1]), nil
	case "not":
		return expr.Not(args[0]), nil
	case "numcaches":
		return expr.NumCaches(), nil
	case "equals":
		if args[0].Type() != args[1].Type() {
			return nil, errf(e.Pos, "equals on mismatched types %s and %s", args[0].Type(), args[1].Type())
		}
		return expr.Eq(args[0], args[1]), nil
	case "ite":
		if args[1].Type() != args[2].Type() {
			return nil, errf(e.Pos, "ite branches have mismatched types %s and %s", args[1].Type(), args[2].Type())
		}
		return expr.Ite(args[0], args[1], args[2]), nil
	}
	return nil, errf(e.Pos, "unhandled builtin %s", e.Name)
}
