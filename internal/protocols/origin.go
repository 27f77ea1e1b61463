package protocols

import (
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
)

// Origin builds the SGI-Origin-style protocol of case study C (§6.3): a
// directory MESI protocol with speculative replies, transcribed from the
// Laudon–Lenoski flow descriptions. Directory state names follow the
// paper's anecdote (UNOWN/SHRD/EXCL/BUSY_SHARED/BUSY_EXCL/BUSY_INV).
//
// The central flow is the §2 anecdote: on a READ to an EXCLUSIVE
// directory, the directory moves to BUSY_SHARED, sends an intervention
// (ISHARED) to the previous owner and a speculative reply (SREPLY) to the
// requester, and must update Sharers. The published prose only says the
// new Sharers "needs to contain at least the sender in addition to the
// old value", which the snippet expresses as a superset constraint; the
// minimal consistent expression is setadd(Sharers, Msg.Sender), which
// drops the previous owner — the Figure 2 coherence violation. With
// fixed=true the concrete bug-fix snippet (the counterexample scenario
// pinned to concrete values) is added, and synthesis produces
// setadd(setadd(Sharers, Msg.Sender), Owner).
//
// Per §6.3's methodology, most guards are left empty and inferred from
// preconditions; guards whose inferred form would be artificially large
// (the sharer-set emptiness splits) are specified symbolically, exactly as
// the paper's programmers did.
func Origin(numCaches int, fixed bool) *Spec {
	p := originSkeleton(numCaches)
	spec := &Spec{
		Name: "Origin", Sys: originSystem(p), Vocab: originVocab(p),
		Cache: p.cache, Dir: p.dir,
	}
	spec.Snippets = originSnippets(p, fixed)
	spec.Invariants = originInvariants(p)
	return spec
}

type originParts struct {
	msiParts
}

func originSkeleton(numCaches int) *originParts {
	u := expr.NewUniverse(numCaches)
	reqT := u.MustDeclareEnum("OReqType", "READ", "READEX", "PUTX")
	cacheT := u.MustDeclareEnum("OCacheMsg",
		"SREPLY", "SPEC", "EREPLY", "ISHARED", "IEXCL", "INVAL", "WBACK", "SACK", "XFER")
	ackT := u.MustDeclareEnum("OAckType", "SWB", "OWB", "IACK")

	cache := &efsm.ProcDef{
		Name: "Cache",
		States: u.MustDeclareEnum("OCacheState",
			"I", "I_S", "I_SW", "I_IW", "I_M", "S", "S_M", "M", "E", "M_I", "S_I", "I_I"),
		Init:       "I",
		Replicated: true,
		Triggers:   []string{"Load", "Store", "Evict"},
	}
	dir := &efsm.ProcDef{
		Name: "Dir",
		States: u.MustDeclareEnum("ODirState",
			"UNOWN", "SHRD", "EXCL", "BUSY_SHARED", "BUSY_EXCL", "BUSY_INV"),
		Init: "UNOWN",
		Vars: []*expr.Var{
			expr.V("Owner", expr.PIDType),
			expr.V("Sharers", expr.SetType),
			expr.V("Req", expr.PIDType),
			expr.V("AckCnt", expr.IntType),
		},
	}

	reqNet := &efsm.Network{
		Name: "ReqNet", Kind: efsm.Ordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "OReq", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(reqT)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	cacheNet := &efsm.Network{
		Name: "CacheNet", Kind: efsm.Ordered, Receiver: cache, Route: efsm.RouteByField, DestField: "Dest",
		Msg: &efsm.MessageType{Name: "OCacheM", Fields: []efsm.Field{
			{Name: "CType", T: expr.EnumOf(cacheT)},
			{Name: "Dest", T: expr.PIDType},
			{Name: "Req", T: expr.PIDType},
		}},
	}
	ackNet := &efsm.Network{
		Name: "AckNet", Kind: efsm.Unordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "OAck", Fields: []efsm.Field{
			{Name: "AType", T: expr.EnumOf(ackT)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	return &originParts{msiParts: msiParts{
		u: u, reqT: reqT, cacheT: cacheT, ackT: ackT,
		cache: cache, dir: dir, reqNet: reqNet, cacheNet: cacheNet, ackNet: ackNet,
	}}
}

func originSystem(p *originParts) *efsm.System {
	return &efsm.System{
		Name: "Origin", U: p.u,
		Networks: []*efsm.Network{p.reqNet, p.cacheNet, p.ackNet},
		Defs:     []*efsm.ProcDef{p.dir, p.cache},
	}
}

func originVocab(p *originParts) *expr.Vocabulary {
	return expr.CoherenceVocabulary(p.u, expr.CoherenceOptions{
		Enums:             p.u.Enums(),
		WithEnumConstants: true,
		WithSetLiterals:   true,
		WithoutEnumIte:    true,
	})
}

// originReadToExclusive is the anecdote snippet: the flow description
// mapped to a symbolic snippet with the Sharers update left as a superset
// constraint ("at least the sender in addition to the old value").
func originReadToExclusive(p *originParts) *efsm.Snippet {
	sender := field("Sender", expr.PIDType)
	mtype := field("MType", expr.EnumOf(p.reqT))
	owner := expr.V("Owner", expr.PIDType)
	sharers := expr.V("Sharers", expr.SetType)
	sharersP := expr.V(efsm.Prime("Sharers"), expr.SetType)
	cc := func(k string) expr.Expr { return expr.EnumC(p.cacheT, k) }
	pre := expr.And(
		expr.Eq(mtype, expr.EnumC(p.reqT, "READ")),
		expr.Neq(sender, owner))
	return newSnip("d-read-excl", "Dir", "EXCL", "BUSY_SHARED", onMsg(p.reqNet)).
		send(p.cacheNet, "IMsg").send(p.cacheNet, "RMsg").
		kase(pre,
			eq("IMsg.CType", cc("ISHARED")),
			eq("IMsg.Dest", owner),
			eq("IMsg.Req", sender),
			eq("RMsg.CType", cc("SPEC")),
			eq("RMsg.Dest", sender),
			eq("RMsg.Req", sender),
			eq("Owner", sender),
			eq("Req", sender),
			// Underspecified: Sharers' ⊇ Sharers ∪ {Msg.Sender}.
			efsm.Post{Target: "Sharers",
				Constraint: expr.SubsetEq(expr.SetAdd(sharers, sender), sharersP)},
		).
		done()
}

// originReadToExclusiveFix is the concrete snippet the programmer adds
// after inspecting the Figure 2 trace: the same transition with the
// counterexample scenario pinned to concrete values and the desired
// Sharers outcome stated exactly.
func originReadToExclusiveFix(p *originParts) *efsm.Snippet {
	sender := field("Sender", expr.PIDType)
	mtype := field("MType", expr.EnumOf(p.reqT))
	owner := expr.V("Owner", expr.PIDType)
	sharers := expr.V("Sharers", expr.SetType)
	sharersP := expr.V(efsm.Prime("Sharers"), expr.SetType)
	pre := expr.And(
		expr.Eq(mtype, expr.EnumC(p.reqT, "READ")),
		expr.Eq(owner, expr.PIDC(0)),
		expr.Eq(sender, expr.PIDC(1)),
		expr.Eq(sharers, expr.NewConst(expr.SetVal(0))))
	return newSnip("d-read-excl-fix", "Dir", "EXCL", "BUSY_SHARED", onMsg(p.reqNet)).
		send(p.cacheNet, "IMsg").send(p.cacheNet, "RMsg").
		kase(pre,
			efsm.Post{Target: "Sharers",
				Constraint: expr.Eq(sharersP, expr.SetC(0, 1))},
		).
		done()
}

func originSnippets(p *originParts, fixed bool) []*efsm.Snippet {
	self := selfVar()
	sender := field("Sender", expr.PIDType)
	mtype := field("MType", expr.EnumOf(p.reqT))
	ctype := field("CType", expr.EnumOf(p.cacheT))
	atype := field("AType", expr.EnumOf(p.ackT))
	owner := expr.V("Owner", expr.PIDType)
	sharers := expr.V("Sharers", expr.SetType)
	req := expr.V("Req", expr.PIDType)
	ackCnt := expr.V("AckCnt", expr.IntType)
	isReq := func(k string) expr.Expr { return expr.Eq(mtype, expr.EnumC(p.reqT, k)) }
	isC := func(k string) expr.Expr { return expr.Eq(ctype, expr.EnumC(p.cacheT, k)) }
	isAck := func(k string) expr.Expr { return expr.Eq(atype, expr.EnumC(p.ackT, k)) }
	cc := func(k string) expr.Expr { return expr.EnumC(p.cacheT, k) }
	ackC := func(k string) expr.Expr { return expr.EnumC(p.ackT, k) }
	empty := expr.NewConst(expr.SetVal(0))
	othersOf := func(e expr.Expr) expr.Expr { return expr.SetMinus(sharers, expr.Singleton(e)) }

	sendReq := func(kind string) []efsm.Post {
		return []efsm.Post{
			eq("Out.MType", expr.EnumC(p.reqT, kind)),
			eq("Out.Sender", self),
		}
	}
	ackTo := func(kind string) []efsm.Post {
		return []efsm.Post{
			eq("Ack.AType", ackC(kind)),
			eq("Ack.Sender", self),
		}
	}
	mreq := field("Req", expr.PIDType)
	withSack := func(posts []efsm.Post) []efsm.Post {
		return append(posts,
			eq("SA.CType", cc("SACK")),
			eq("SA.Dest", mreq),
			eq("SA.Req", mreq))
	}
	withXfer := func(posts []efsm.Post) []efsm.Post {
		return append(posts,
			eq("XF.CType", cc("XFER")),
			eq("XF.Dest", mreq),
			eq("XF.Req", mreq))
	}
	replyTo := func(msgVar, kind string, dest expr.Expr) []efsm.Post {
		return []efsm.Post{
			eq(msgVar+".CType", cc(kind)),
			eq(msgVar+".Dest", dest),
			eq(msgVar+".Req", dest),
		}
	}

	snips := []*efsm.Snippet{
		// ---- cache: requests (guards trivially inferred from triggers).
		newSnip("c-load", "Cache", "I", "I_S", onTrig("Load")).
			send(p.reqNet, "Out").kase(nil, sendReq("READ")...).done(),
		newSnip("c-store", "Cache", "I", "I_M", onTrig("Store")).
			send(p.reqNet, "Out").kase(nil, sendReq("READEX")...).done(),
		newSnip("c-upgrade", "Cache", "S", "S_M", onTrig("Store")).
			send(p.reqNet, "Out").kase(nil, sendReq("READEX")...).done(),
		newSnip("c-evict-s", "Cache", "S", "I", onTrig("Evict")).done(),
		newSnip("c-evict-m", "Cache", "M", "M_I", onTrig("Evict")).
			send(p.reqNet, "Out").kase(nil, sendReq("PUTX")...).done(),
		newSnip("c-evict-e", "Cache", "E", "M_I", onTrig("Evict")).
			send(p.reqNet, "Out").kase(nil, sendReq("PUTX")...).done(),
		newSnip("c-silent-upgrade", "Cache", "E", "M", onTrig("Store")).done(),

		// ---- cache: replies (guards inferred).
		// A SREPLY from a SHRD directory is current data: the load
		// completes at once. A SPEC reply from an EXCL directory is
		// speculative and is buffered until the previous owner's sharing
		// acknowledgement (SACK) confirms the downgrade — Origin's
		// revision-message discipline.
		newSnip("c-sreply", "Cache", "I_S", "S", onMsg(p.cacheNet)).
			kase(isC("SREPLY")).done(),
		newSnip("c-spec", "Cache", "I_S", "I_SW", onMsg(p.cacheNet)).
			kase(isC("SPEC")).done(),
		newSnip("c-sack", "Cache", "I_SW", "S", onMsg(p.cacheNet)).
			kase(isC("SACK")).done(),
		newSnip("c-inval-isw", "Cache", "I_SW", "I_IW", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),
		newSnip("c-sack-iiw", "Cache", "I_IW", "I", onMsg(p.cacheNet)).
			guard(isC("SACK")).done(),
		newSnip("c-ereply-is", "Cache", "I_S", "E", onMsg(p.cacheNet)).
			kase(isC("EREPLY")).done(),
		newSnip("c-ereply-im", "Cache", "I_M", "M", onMsg(p.cacheNet)).
			kase(isC("EREPLY")).done(),
		newSnip("c-ereply-sm", "Cache", "S_M", "M", onMsg(p.cacheNet)).
			kase(isC("EREPLY")).done(),
		newSnip("c-xfer-im", "Cache", "I_M", "M", onMsg(p.cacheNet)).
			kase(isC("XFER")).done(),
		newSnip("c-xfer-sm", "Cache", "S_M", "M", onMsg(p.cacheNet)).
			kase(isC("XFER")).done(),

		// ---- cache: interventions and invalidations.
		newSnip("c-ishared-m", "Cache", "M", "S", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").send(p.cacheNet, "SA").
			kase(isC("ISHARED"), withSack(ackTo("SWB"))...).done(),
		newSnip("c-ishared-e", "Cache", "E", "S", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").send(p.cacheNet, "SA").
			kase(isC("ISHARED"), withSack(ackTo("SWB"))...).done(),
		newSnip("c-ishared-mi", "Cache", "M_I", "S_I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").send(p.cacheNet, "SA").
			kase(isC("ISHARED"), withSack(ackTo("SWB"))...).done(),
		newSnip("c-iexcl-m", "Cache", "M", "I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").send(p.cacheNet, "XF").
			kase(isC("IEXCL"), withXfer(ackTo("OWB"))...).done(),
		newSnip("c-iexcl-e", "Cache", "E", "I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").send(p.cacheNet, "XF").
			kase(isC("IEXCL"), withXfer(ackTo("OWB"))...).done(),
		newSnip("c-iexcl-mi", "Cache", "M_I", "I_I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").send(p.cacheNet, "XF").
			kase(isC("IEXCL"), withXfer(ackTo("OWB"))...).done(),
		newSnip("c-inval-s", "Cache", "S", "I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),
		newSnip("c-inval-sm", "Cache", "S_M", "I_M", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),
		newSnip("c-inval-si", "Cache", "S_I", "I_I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),
		newSnip("c-inval-i", "Cache", "I", "I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),
		newSnip("c-inval-is", "Cache", "I_S", "I_S", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),
		newSnip("c-inval-im", "Cache", "I_M", "I_M", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("INVAL"), ackTo("IACK")...).done(),

		// ---- cache: writeback acks.
		newSnip("c-wback-mi", "Cache", "M_I", "I", onMsg(p.cacheNet)).
			kase(isC("WBACK")).done(),
		newSnip("c-wback-si", "Cache", "S_I", "I", onMsg(p.cacheNet)).
			kase(isC("WBACK")).done(),
		newSnip("c-wback-ii", "Cache", "I_I", "I", onMsg(p.cacheNet)).
			guard(isC("WBACK")).done(),
		newSnip("c-wback-i", "Cache", "I", "I", onMsg(p.cacheNet)).
			kase(isC("WBACK")).done(),

		// ---- directory: unowned.
		newSnip("d-read-unown", "Dir", "UNOWN", "EXCL", onMsg(p.reqNet)).
			send(p.cacheNet, "R").
			kase(isReq("READ"), append(replyTo("R", "EREPLY", sender),
				eq("Owner", sender))...).
			done(),
		newSnip("d-readex-unown", "Dir", "UNOWN", "EXCL", onMsg(p.reqNet)).
			send(p.cacheNet, "E").
			kase(isReq("READEX"), append(replyTo("E", "EREPLY", sender),
				eq("Owner", sender))...).
			done(),
		newSnip("d-putx-unown", "Dir", "UNOWN", "UNOWN", onMsg(p.reqNet)).
			send(p.cacheNet, "W").
			kase(isReq("PUTX"), replyTo("W", "WBACK", sender)...).
			done(),

		// ---- directory: shared. The sharer-emptiness splits carry
		// symbolic guards, per §6.3 ("we specified the guards in
		// instances where ... prevented the tool from exploring
		// artificially large expressions").
		newSnip("d-read-shrd", "Dir", "SHRD", "SHRD", onMsg(p.reqNet)).
			guard(isReq("READ")).
			send(p.cacheNet, "R").
			kase(nil, append(replyTo("R", "SREPLY", sender),
				eq("Sharers", expr.SetAdd(sharers, sender)))...).
			done(),
		newSnip("d-readex-shrd-solo", "Dir", "SHRD", "EXCL", onMsg(p.reqNet)).
			guard(expr.And(isReq("READEX"), expr.Eq(othersOf(sender), empty))).
			send(p.cacheNet, "R").
			kase(nil, append(replyTo("R", "EREPLY", sender),
				eq("Owner", sender),
				eq("Sharers", empty))...).
			done(),
		newSnip("d-readex-shrd-inv", "Dir", "SHRD", "BUSY_INV", onMsg(p.reqNet)).
			guard(expr.And(isReq("READEX"), expr.Neq(othersOf(sender), empty))).
			multicast(p.cacheNet, "Inv", othersOf(sender)).
			kase(nil,
				eq("Inv.CType", cc("INVAL")),
				eq("Inv.Req", sender),
				eq("AckCnt", expr.Card(othersOf(sender))),
				eq("Req", sender)).
			done(),
		newSnip("d-putx-shrd", "Dir", "SHRD", "SHRD", onMsg(p.reqNet)).
			guard(isReq("PUTX")).
			send(p.cacheNet, "W").
			kase(nil, append(replyTo("W", "WBACK", sender),
				eq("Sharers", othersOf(sender)))...).
			done(),

		// ---- directory: invalidation collection.
		newSnip("d-iack-more", "Dir", "BUSY_INV", "BUSY_INV", onMsg(p.ackNet)).
			guard(expr.And(isAck("IACK"), expr.Gt(ackCnt, expr.IntC(p.u, 1)))).
			kase(nil, eq("AckCnt", expr.Dec(ackCnt))).
			done(),
		newSnip("d-iack-last", "Dir", "BUSY_INV", "EXCL", onMsg(p.ackNet)).
			guard(expr.And(isAck("IACK"), expr.Eq(ackCnt, expr.IntC(p.u, 1)))).
			send(p.cacheNet, "R").
			kase(nil, append(replyTo("R", "EREPLY", req),
				eq("Owner", req),
				eq("Sharers", empty),
				eq("AckCnt", expr.IntC(p.u, 0)))...).
			done(),
		newSnip("d-businv-stall", "Dir", "BUSY_INV", "", onMsg(p.reqNet)).stall().done(),

		// ---- directory: exclusive. The anecdote transition plus the
		// rest of the flows.
		originReadToExclusive(p),
		// No speculative reply on the exclusive path: the new owner's
		// data comes from the old owner's transfer message (XFER).
		newSnip("d-readex-excl", "Dir", "EXCL", "BUSY_EXCL", onMsg(p.reqNet)).
			send(p.cacheNet, "IMsg").
			kase(expr.And(isReq("READEX"), expr.Neq(sender, owner)),
				eq("IMsg.CType", cc("IEXCL")),
				eq("IMsg.Dest", owner),
				eq("IMsg.Req", sender),
				eq("Owner", sender),
				eq("Req", sender)).
			done(),
		newSnip("d-putx-excl-owner", "Dir", "EXCL", "UNOWN", onMsg(p.reqNet)).
			send(p.cacheNet, "W").
			kase(expr.And(isReq("PUTX"), expr.Eq(sender, owner)),
				replyTo("W", "WBACK", sender)...).
			done(),
		newSnip("d-putx-excl-stale", "Dir", "EXCL", "EXCL", onMsg(p.reqNet)).
			send(p.cacheNet, "X").
			kase(expr.And(isReq("PUTX"), expr.Neq(sender, owner)),
				eq("X.CType", cc("WBACK")),
				eq("X.Dest", sender),
				eq("X.Req", sender)).
			done(),

		// ---- directory: busy completions.
		newSnip("d-swb", "Dir", "BUSY_SHARED", "SHRD", onMsg(p.ackNet)).
			guard(isAck("SWB")).done(),
		newSnip("d-bshared-stall", "Dir", "BUSY_SHARED", "", onMsg(p.reqNet)).stall().done(),
		newSnip("d-owb", "Dir", "BUSY_EXCL", "EXCL", onMsg(p.ackNet)).
			guard(isAck("OWB")).done(),
		newSnip("d-bexcl-stall", "Dir", "BUSY_EXCL", "", onMsg(p.reqNet)).stall().done(),
	}
	if fixed {
		snips = append(snips, originReadToExclusiveFix(p))
	}
	return snips
}

func originInvariants(p *originParts) []mc.Invariant {
	cache, dir := p.cache, p.dir
	return []mc.Invariant{
		mc.SWMR(cache, []string{"M", "E"}, []string{"S", "S_M"}),
		// The anecdote's violation class: the directory's sharer list
		// must cover every stable shared copy.
		dirAccuracy("dir-sharers-accuracy", dir, cache, "SHRD", []string{"S", "S_M"}, "Sharers"),
		dirAccuracy("dir-owner-accuracy", dir, cache, "EXCL", []string{"M", "E"}, "Owner"),
	}
}
