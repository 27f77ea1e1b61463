package lang

import "strconv"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
}

// Parse parses a TRANSIT program into its AST.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.file()
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) bump() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.bump()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, errf(p.cur().pos, "expected %s, found %s", k, p.describe(p.cur()))
	}
	return p.bump(), nil
}

func (p *parser) describe(t token) string {
	if t.kind == tokIdent || t.kind == tokInt {
		return "'" + t.text + "'"
	}
	return t.kind.String()
}

// keyword expects a specific identifier.
func (p *parser) keyword(word string) error {
	t, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if t.text != word {
		return errf(t.pos, "expected '%s', found '%s'", word, t.text)
	}
	return nil
}

func (p *parser) atKeyword(word string) bool {
	return p.at(tokIdent) && p.cur().text == word
}

func (p *parser) ident() (string, Pos, error) {
	t, err := p.expect(tokIdent)
	return t.text, t.pos, err
}

// identList parses IDENT ("," IDENT)*.
func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		name, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		if !p.accept(tokComma) {
			return out, nil
		}
	}
}

// bracedIdentList parses "{" identList "}".
func (p *parser) bracedIdentList() ([]string, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	list, err := p.identList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return list, nil
}

func (p *parser) file() (*File, error) {
	f := &File{}
	if err := p.keyword("protocol"); err != nil {
		return nil, err
	}
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	f.Name = name
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	for !p.at(tokEOF) {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, errf(t.pos, "expected a declaration, found %s", p.describe(t))
		}
		switch t.text {
		case "enum":
			d, err := p.enumDecl()
			if err != nil {
				return nil, err
			}
			f.Enums = append(f.Enums, d)
		case "message":
			d, err := p.messageDecl()
			if err != nil {
				return nil, err
			}
			f.Messages = append(f.Messages, d)
		case "network":
			d, err := p.networkDecl()
			if err != nil {
				return nil, err
			}
			f.Networks = append(f.Networks, d)
		case "process":
			d, err := p.processDecl()
			if err != nil {
				return nil, err
			}
			f.Processes = append(f.Processes, d)
		case "invariant":
			d, err := p.invariantDecl()
			if err != nil {
				return nil, err
			}
			f.Invariants = append(f.Invariants, d)
		default:
			return nil, errf(t.pos, "unknown declaration '%s'", t.text)
		}
	}
	return f, nil
}

func (p *parser) enumDecl() (*EnumDecl, error) {
	pos := p.bump().pos // enum
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	values, err := p.bracedIdentList()
	if err != nil {
		return nil, err
	}
	return &EnumDecl{Pos: pos, Name: name, Values: values}, nil
}

func (p *parser) fieldDecl() (*FieldDecl, error) {
	name, pos, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	tname, tpos, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &FieldDecl{Pos: pos, Name: name, Type: TypeRef{Pos: tpos, Name: tname}}, nil
}

func (p *parser) messageDecl() (*MessageDecl, error) {
	pos := p.bump().pos // message
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	d := &MessageDecl{Pos: pos, Name: name}
	for !p.at(tokRBrace) {
		f, err := p.fieldDecl()
		if err != nil {
			return nil, err
		}
		d.Fields = append(d.Fields, f)
		if !p.accept(tokSemi) {
			break
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) networkDecl() (*NetworkDecl, error) {
	pos := p.bump().pos // network
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	kind, kpos, err := p.ident()
	if err != nil {
		return nil, err
	}
	if kind != "ordered" && kind != "unordered" {
		return nil, errf(kpos, "network kind must be 'ordered' or 'unordered', found '%s'", kind)
	}
	msg, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("to"); err != nil {
		return nil, err
	}
	recv, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &NetworkDecl{Pos: pos, Name: name, Ordered: kind == "ordered", MsgType: msg, Receiver: recv}
	if p.atKeyword("by") {
		p.bump()
		field, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.ByField = field
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) processDecl() (*ProcessDecl, error) {
	pos := p.bump().pos // process
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &ProcessDecl{Pos: pos, Name: name}
	if p.atKeyword("replicated") {
		p.bump()
		d.Replicated = true
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for !p.at(tokRBrace) {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, errf(t.pos, "expected a process item, found %s", p.describe(t))
		}
		switch t.text {
		case "states":
			p.bump()
			states, err := p.bracedIdentList()
			if err != nil {
				return nil, err
			}
			d.States = states
			if err := p.keyword("init"); err != nil {
				return nil, err
			}
			init, _, err := p.ident()
			if err != nil {
				return nil, err
			}
			d.Init = init
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		case "var":
			p.bump()
			f, err := p.fieldDecl()
			if err != nil {
				return nil, err
			}
			d.Vars = append(d.Vars, f)
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		case "triggers":
			p.bump()
			trigs, err := p.bracedIdentList()
			if err != nil {
				return nil, err
			}
			d.Triggers = append(d.Triggers, trigs...)
			p.accept(tokSemi)
		case "transition":
			tr, err := p.transitionDecl()
			if err != nil {
				return nil, err
			}
			d.Transitions = append(d.Transitions, tr)
		default:
			return nil, errf(t.pos, "unknown process item '%s'", t.text)
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) transitionDecl() (*TransitionDecl, error) {
	pos := p.bump().pos // transition
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	from, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return nil, err
	}
	first, fpos, err := p.ident()
	if err != nil {
		return nil, err
	}
	ev := EventDecl{Pos: fpos}
	if p.at(tokIdent) {
		// "Net Var" message event.
		msgVar, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		ev.Net, ev.MsgVar = first, msgVar
	} else {
		ev.Trigger = first
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	tr := &TransitionDecl{Pos: pos, From: from, Event: ev}

	// Optional symbolic guard: [expr] or [] (infer).
	if p.accept(tokLBracket) {
		if !p.at(tokRBracket) {
			g, err := p.expr()
			if err != nil {
				return nil, err
			}
			tr.Guard = g
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
	}

	// stall; or => target body.
	if p.atKeyword("stall") {
		p.bump()
		tr.Stall = true
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return tr, nil
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	to, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	tr.To = to
	for p.accept(tokComma) {
		net, npos, err := p.ident()
		if err != nil {
			return nil, err
		}
		msgVar, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		snd := &SendDecl{Pos: npos, Net: net, MsgVar: msgVar}
		if p.atKeyword("to") {
			p.bump()
			target, err := p.expr()
			if err != nil {
				return nil, err
			}
			snd.Target = target
		}
		tr.Sends = append(tr.Sends, snd)
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}

	// Optional body of cases.
	if p.accept(tokLBrace) {
		for !p.at(tokRBrace) {
			c, err := p.caseDecl()
			if err != nil {
				return nil, err
			}
			tr.Cases = append(tr.Cases, c)
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
	} else {
		p.accept(tokSemi)
	}
	return tr, nil
}

func (p *parser) caseDecl() (*CaseDecl, error) {
	t, err := p.expect(tokLBracket)
	if err != nil {
		return nil, err
	}
	c := &CaseDecl{Pos: t.pos}
	if !p.at(tokRBracket) {
		pre, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Pre = pre
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokImply); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for !p.at(tokRBrace) {
		post, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Posts = append(c.Posts, post)
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) invariantDecl() (*InvariantDecl, error) {
	pos := p.bump().pos // invariant
	kind, kpos, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &InvariantDecl{Pos: pos, Kind: kind}
	switch kind {
	case "atmostone":
		proc, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.Proc = proc
		if err := p.keyword("in"); err != nil {
			return nil, err
		}
		states, err := p.bracedIdentList()
		if err != nil {
			return nil, err
		}
		d.States = states
	case "swmr":
		proc, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.Proc = proc
		if err := p.keyword("writers"); err != nil {
			return nil, err
		}
		if d.Writers, err = p.bracedIdentList(); err != nil {
			return nil, err
		}
		if err := p.keyword("readers"); err != nil {
			return nil, err
		}
		if d.Readers, err = p.bracedIdentList(); err != nil {
			return nil, err
		}
	default:
		return nil, errf(kpos, "unknown invariant form '%s' (want atmostone or swmr)", kind)
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

// ---- expressions ----
// Precedence (loosest to tightest): | , & , comparisons, + -, unary !, postfix.

func (p *parser) expr() (ExprNode, error) { return p.orExpr() }

func (p *parser) orExpr() (ExprNode, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tokOr) {
		op := p.bump()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Pos: op.pos, Op: tokOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (ExprNode, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tokAnd) {
		op := p.bump()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Pos: op.pos, Op: tokAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (ExprNode, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().kind {
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		op := p.bump()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Pos: op.pos, Op: op.kind, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (ExprNode, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		op := p.bump()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Pos: op.pos, Op: op.kind, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (ExprNode, error) {
	if p.at(tokNot) {
		op := p.bump()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Pos: op.pos, Op: tokNot, E: e}, nil
	}
	if p.at(tokMinus) {
		op := p.bump()
		t, err := p.expect(tokInt)
		if err != nil {
			return nil, errf(op.pos, "unary minus applies to integer literals only")
		}
		n, _ := strconv.ParseInt(t.text, 10, 64)
		return &IntExpr{Pos: op.pos, Val: -n}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (ExprNode, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.bump()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.pos, "bad integer literal %s", t.text)
		}
		return &IntExpr{Pos: t.pos, Val: n}, nil
	case tokLParen:
		p.bump()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBrace:
		p.bump()
		set := &SetExpr{Pos: t.pos}
		for !p.at(tokRBrace) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			set.Elems = append(set.Elems, e)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return set, nil
	case tokIdent:
		p.bump()
		// Call?
		if p.at(tokLParen) {
			p.bump()
			call := &CallExpr{Pos: t.pos, Name: t.text}
			for !p.at(tokRParen) {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		id := &IdentExpr{Pos: t.pos, Parts: []string{t.text}}
		if p.accept(tokDot) {
			field, _, err := p.ident()
			if err != nil {
				return nil, err
			}
			id.Parts = append(id.Parts, field)
		}
		if p.accept(tokPrime) {
			id.Primed = true
		}
		return id, nil
	}
	return nil, errf(t.pos, "expected an expression, found %s", p.describe(t))
}
