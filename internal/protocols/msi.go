package protocols

import (
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
)

// msiParts exposes the skeleton pieces so the MESI extension (case study
// B) can build on the MSI definition.
type msiParts struct {
	u        *expr.Universe
	reqT     *expr.EnumType
	cacheT   *expr.EnumType
	ackT     *expr.EnumType
	cache    *efsm.ProcDef
	dir      *efsm.ProcDef
	reqNet   *efsm.Network
	cacheNet *efsm.Network
	ackNet   *efsm.Network
}

// MSI builds a full MSI directory protocol, the second GEMS transcription
// of Table 4 and the substrate of case study A.
//
// Design notes (documented deviations are in DESIGN.md):
//   - The directory serializes requests on an ordered ReqNet and uses
//     transient states (B_S, B_O, B_M) with stall rules for conflicting
//     requests while a recall, ownership transfer, or invalidation round
//     is in flight.
//   - All messages *to* caches (Data, FwdGetS, FwdGetM, Inv, PutAck)
//     share one network, CacheNet, ordered per destination. Point-to-point
//     ordering of dir→cache traffic is what the primer's extra transient
//     states otherwise reconstruct; cache→cache data rides the same net.
//   - Sharers evict silently from S; the directory's sharer list is a
//     superset and stale invalidations are acknowledged from I.
//   - Invalidation acknowledgements are collected by the directory
//     (AckCnt), which releases data to the requester when the count
//     drains.
//
// Guard style mirrors §6's methodology: directory guards are written
// symbolically ("we specified the guards in instances where the incoming
// message type was found to be inconsequential"); the cache-side guards
// for multi-block groups are left empty and inferred from the case
// preconditions.
func MSI(numCaches int) *Spec {
	p := msiSkeleton(numCaches)
	spec := &Spec{
		Name: "MSI", Sys: msiSystem("MSI", p), Vocab: msiVocab(p),
		Cache: p.cache, Dir: p.dir,
	}
	spec.Snippets = msiSnippets(p)
	spec.Invariants = msiInvariants(p)
	return spec
}

func msiSkeleton(numCaches int) *msiParts { return msiSkeletonExt(numCaches, false) }

// msiSkeletonExt builds the MSI skeleton; withE adds the MESI extension's
// states and the exclusive-data message type (case study B).
func msiSkeletonExt(numCaches int, withE bool) *msiParts {
	u := expr.NewUniverse(numCaches)
	reqT := u.MustDeclareEnum("MSIReqType", "GetS", "GetM", "PutM")
	cacheMsgs := []string{"Data", "FwdGetS", "FwdGetM", "Inv", "PutAck"}
	cacheStates := []string{"I", "I_S", "I_M", "S", "S_M", "M", "M_I", "S_I", "I_I"}
	dirStates := []string{"I", "S", "M", "B_S", "B_O", "B_M"}
	if withE {
		cacheMsgs = append(cacheMsgs, "DataE")
		cacheStates = append(cacheStates, "E")
		dirStates = append(dirStates, "E")
	}
	cacheT := u.MustDeclareEnum("MSICacheMsg", cacheMsgs...)
	ackT := u.MustDeclareEnum("MSIAckType", "InvAck", "DownAck", "OwnAck")

	cache := &efsm.ProcDef{
		Name:       "Cache",
		States:     u.MustDeclareEnum("MSICacheState", cacheStates...),
		Init:       "I",
		Replicated: true,
		Triggers:   []string{"Load", "Store", "Evict"},
	}
	dir := &efsm.ProcDef{
		Name:   "Dir",
		States: u.MustDeclareEnum("MSIDirState", dirStates...),
		Init:   "I",
		Vars: []*expr.Var{
			expr.V("Owner", expr.PIDType),
			expr.V("Sharers", expr.SetType),
			expr.V("Req", expr.PIDType),
			expr.V("AckCnt", expr.IntType),
		},
	}

	reqNet := &efsm.Network{
		Name: "ReqNet", Kind: efsm.Ordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "MSIReq", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(reqT)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	cacheNet := &efsm.Network{
		Name: "CacheNet", Kind: efsm.Ordered, Receiver: cache, Route: efsm.RouteByField, DestField: "Dest",
		Msg: &efsm.MessageType{Name: "MSICacheM", Fields: []efsm.Field{
			{Name: "CType", T: expr.EnumOf(cacheT)},
			{Name: "Dest", T: expr.PIDType},
			{Name: "Req", T: expr.PIDType},
		}},
	}
	ackNet := &efsm.Network{
		Name: "AckNet", Kind: efsm.Unordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "MSIAck", Fields: []efsm.Field{
			{Name: "AType", T: expr.EnumOf(ackT)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	return &msiParts{u: u, reqT: reqT, cacheT: cacheT, ackT: ackT,
		cache: cache, dir: dir, reqNet: reqNet, cacheNet: cacheNet, ackNet: ackNet}
}

func msiSystem(name string, p *msiParts) *efsm.System {
	return &efsm.System{
		Name: name, U: p.u,
		Networks: []*efsm.Network{p.reqNet, p.cacheNet, p.ackNet},
		Defs:     []*efsm.ProcDef{p.dir, p.cache},
	}
}

func msiVocab(p *msiParts) *expr.Vocabulary {
	return expr.CoherenceVocabulary(p.u, expr.CoherenceOptions{
		Enums:             p.u.Enums(),
		WithEnumConstants: true,
		WithSetLiterals:   true,
		WithoutEnumIte:    true,
	})
}

// msiSnippets is the full transcription; the case-study A driver feeds
// subsets of it through the iterative workflow.
func msiSnippets(p *msiParts) []*efsm.Snippet {
	return append(msiCacheSnippets(p), msiDirSnippets(p)...)
}

func msiCacheSnippets(p *msiParts) []*efsm.Snippet {
	self := selfVar()
	ctype := field("CType", expr.EnumOf(p.cacheT))
	mreq := field("Req", expr.PIDType)
	isC := func(k string) expr.Expr { return expr.Eq(ctype, expr.EnumC(p.cacheT, k)) }
	reqC := func(k string) expr.Expr { return expr.EnumC(p.reqT, k) }
	ackC := func(k string) expr.Expr { return expr.EnumC(p.ackT, k) }

	// sendReq posts a request to the directory.
	sendReq := func(kind string) []efsm.Post {
		return []efsm.Post{
			eq("Out.MType", reqC(kind)),
			eq("Out.Sender", self),
		}
	}
	// ackPosts acknowledges an invalidation.
	ackPosts := []efsm.Post{
		eq("Ack.AType", ackC("InvAck")),
		eq("Ack.Sender", self),
	}
	// fwdPosts answers a forwarded request with data to the embedded
	// requester plus a directory acknowledgement.
	fwdPosts := func(ack string) []efsm.Post {
		return []efsm.Post{
			eq("Data.CType", expr.EnumC(p.cacheT, "Data")),
			eq("Data.Dest", mreq),
			eq("Data.Req", mreq),
			eq("Ack.AType", ackC(ack)),
			eq("Ack.Sender", self),
		}
	}

	return []*efsm.Snippet{
		// Core requests.
		newSnip("c-load", "Cache", "I", "I_S", onTrig("Load")).
			send(p.reqNet, "Out").kase(nil, sendReq("GetS")...).done(),
		newSnip("c-store", "Cache", "I", "I_M", onTrig("Store")).
			send(p.reqNet, "Out").kase(nil, sendReq("GetM")...).done(),
		newSnip("c-upgrade", "Cache", "S", "S_M", onTrig("Store")).
			send(p.reqNet, "Out").kase(nil, sendReq("GetM")...).done(),
		newSnip("c-evict-s", "Cache", "S", "I", onTrig("Evict")).done(),
		newSnip("c-evict-m", "Cache", "M", "M_I", onTrig("Evict")).
			send(p.reqNet, "Out").kase(nil, sendReq("PutM")...).done(),

		// Data arrivals: guards inferred from the preconditions.
		newSnip("c-data-is", "Cache", "I_S", "S", onMsg(p.cacheNet)).
			kase(isC("Data")).done(),
		newSnip("c-data-im", "Cache", "I_M", "M", onMsg(p.cacheNet)).
			kase(isC("Data")).done(),
		newSnip("c-data-sm", "Cache", "S_M", "M", onMsg(p.cacheNet)).
			kase(isC("Data")).done(),

		// Invalidations, including stale ones after silent eviction.
		newSnip("c-inv-s", "Cache", "S", "I", onMsg(p.cacheNet)).
			guard(isC("Inv")).
			send(p.ackNet, "Ack").kase(nil, ackPosts...).done(),
		newSnip("c-inv-sm", "Cache", "S_M", "I_M", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("Inv"), ackPosts...).done(),
		newSnip("c-inv-is", "Cache", "I_S", "I_S", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("Inv"), ackPosts...).done(),
		newSnip("c-inv-im", "Cache", "I_M", "I_M", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("Inv"), ackPosts...).done(),
		newSnip("c-inv-i", "Cache", "I", "I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("Inv"), ackPosts...).done(),
		newSnip("c-inv-si", "Cache", "S_I", "I_I", onMsg(p.cacheNet)).
			send(p.ackNet, "Ack").kase(isC("Inv"), ackPosts...).done(),

		// Forward handling by the owner (and by an owner evicting).
		newSnip("c-fwdgets-m", "Cache", "M", "S", onMsg(p.cacheNet)).
			send(p.cacheNet, "Data").send(p.ackNet, "Ack").
			kase(isC("FwdGetS"), fwdPosts("DownAck")...).done(),
		newSnip("c-fwdgetm-m", "Cache", "M", "I", onMsg(p.cacheNet)).
			send(p.cacheNet, "Data").send(p.ackNet, "Ack").
			kase(isC("FwdGetM"), fwdPosts("OwnAck")...).done(),
		newSnip("c-fwdgets-mi", "Cache", "M_I", "S_I", onMsg(p.cacheNet)).
			send(p.cacheNet, "Data").send(p.ackNet, "Ack").
			kase(isC("FwdGetS"), fwdPosts("DownAck")...).done(),
		newSnip("c-fwdgetm-mi", "Cache", "M_I", "I_I", onMsg(p.cacheNet)).
			send(p.cacheNet, "Data").send(p.ackNet, "Ack").
			kase(isC("FwdGetM"), fwdPosts("OwnAck")...).done(),

		// Eviction acknowledgements.
		newSnip("c-putack-mi", "Cache", "M_I", "I", onMsg(p.cacheNet)).
			kase(isC("PutAck")).done(),
		newSnip("c-putack-si", "Cache", "S_I", "I", onMsg(p.cacheNet)).
			kase(isC("PutAck")).done(),
		newSnip("c-putack-ii", "Cache", "I_I", "I", onMsg(p.cacheNet)).
			guard(isC("PutAck")).done(),
		newSnip("c-putack-i", "Cache", "I", "I", onMsg(p.cacheNet)).
			kase(isC("PutAck")).done(),
	}
}

func msiDirSnippets(p *msiParts) []*efsm.Snippet {
	sender := field("Sender", expr.PIDType)
	mtype := field("MType", expr.EnumOf(p.reqT))
	atype := field("AType", expr.EnumOf(p.ackT))
	owner := expr.V("Owner", expr.PIDType)
	sharers := expr.V("Sharers", expr.SetType)
	req := expr.V("Req", expr.PIDType)
	ackCnt := expr.V("AckCnt", expr.IntType)
	isReq := func(k string) expr.Expr { return expr.Eq(mtype, expr.EnumC(p.reqT, k)) }
	isAck := func(k string) expr.Expr { return expr.Eq(atype, expr.EnumC(p.ackT, k)) }
	cc := func(k string) expr.Expr { return expr.EnumC(p.cacheT, k) }
	empty := expr.NewConst(expr.SetVal(0))
	othersOf := func(e expr.Expr) expr.Expr { return expr.SetMinus(sharers, expr.Singleton(e)) }

	dataTo := func(msgVar string, dest expr.Expr) []efsm.Post {
		return []efsm.Post{
			eq(msgVar+".CType", cc("Data")),
			eq(msgVar+".Dest", dest),
			eq(msgVar+".Req", dest),
		}
	}
	putAckTo := func(dest expr.Expr) []efsm.Post {
		return []efsm.Post{
			eq("R.CType", cc("PutAck")),
			eq("R.Dest", dest),
			eq("R.Req", dest),
		}
	}

	return []*efsm.Snippet{
		// Idle directory.
		newSnip("d-gets-i", "Dir", "I", "S", onMsg(p.reqNet)).
			guard(isReq("GetS")).
			send(p.cacheNet, "R").
			kase(nil, append(dataTo("R", sender), eq("Sharers", expr.Singleton(sender)))...).
			done(),
		newSnip("d-getm-i", "Dir", "I", "M", onMsg(p.reqNet)).
			guard(isReq("GetM")).
			send(p.cacheNet, "R").
			kase(nil, append(dataTo("R", sender), eq("Owner", sender))...).
			done(),
		newSnip("d-putm-i", "Dir", "I", "I", onMsg(p.reqNet)).
			guard(isReq("PutM")).
			send(p.cacheNet, "R").
			kase(nil, putAckTo(sender)...).
			done(),

		// Shared directory.
		newSnip("d-gets-s", "Dir", "S", "S", onMsg(p.reqNet)).
			guard(isReq("GetS")).
			send(p.cacheNet, "R").
			kase(nil, append(dataTo("R", sender), eq("Sharers", expr.SetAdd(sharers, sender)))...).
			done(),
		newSnip("d-getm-s-solo", "Dir", "S", "M", onMsg(p.reqNet)).
			guard(expr.And(isReq("GetM"), expr.Eq(othersOf(sender), empty))).
			send(p.cacheNet, "R").
			kase(nil, append(dataTo("R", sender),
				eq("Owner", sender),
				eq("Sharers", empty))...).
			done(),
		newSnip("d-getm-s-inv", "Dir", "S", "B_M", onMsg(p.reqNet)).
			guard(expr.And(isReq("GetM"), expr.Neq(othersOf(sender), empty))).
			multicast(p.cacheNet, "Inv", othersOf(sender)).
			kase(nil,
				eq("Inv.CType", cc("Inv")),
				eq("Inv.Req", sender),
				eq("AckCnt", expr.Card(othersOf(sender))),
				eq("Req", sender)).
			done(),
		// The stale-PutM reply uses a distinct output-event name (P) so
		// this block stays separate from d-gets-s, which shares
		// (S, ReqNet, S) but answers with data.
		newSnip("d-putm-s", "Dir", "S", "S", onMsg(p.reqNet)).
			guard(isReq("PutM")).
			send(p.cacheNet, "P").
			kase(nil,
				eq("P.CType", cc("PutAck")),
				eq("P.Dest", sender),
				eq("P.Req", sender),
				eq("Sharers", othersOf(sender))).
			done(),

		// Invalidation collection.
		newSnip("d-invack-more", "Dir", "B_M", "B_M", onMsg(p.ackNet)).
			guard(expr.And(isAck("InvAck"), expr.Gt(ackCnt, expr.IntC(p.u, 1)))).
			kase(nil, eq("AckCnt", expr.Dec(ackCnt))).
			done(),
		newSnip("d-invack-last", "Dir", "B_M", "M", onMsg(p.ackNet)).
			guard(expr.And(isAck("InvAck"), expr.Eq(ackCnt, expr.IntC(p.u, 1)))).
			send(p.cacheNet, "R").
			kase(nil, append(dataTo("R", req),
				eq("Owner", req),
				eq("Sharers", empty),
				eq("AckCnt", expr.IntC(p.u, 0)))...).
			done(),
		newSnip("d-bm-stall", "Dir", "B_M", "", onMsg(p.reqNet)).stall().done(),

		// Modified directory.
		newSnip("d-gets-m", "Dir", "M", "B_S", onMsg(p.reqNet)).
			guard(isReq("GetS")).
			send(p.cacheNet, "F").
			kase(nil,
				eq("F.CType", cc("FwdGetS")),
				eq("F.Dest", owner),
				eq("F.Req", sender),
				eq("Req", sender)).
			done(),
		newSnip("d-getm-m", "Dir", "M", "B_O", onMsg(p.reqNet)).
			guard(expr.And(isReq("GetM"), expr.Neq(sender, owner))).
			send(p.cacheNet, "F").
			kase(nil,
				eq("F.CType", cc("FwdGetM")),
				eq("F.Dest", owner),
				eq("F.Req", sender),
				eq("Req", sender)).
			done(),
		newSnip("d-putm-m-owner", "Dir", "M", "I", onMsg(p.reqNet)).
			guard(expr.And(isReq("PutM"), expr.Eq(sender, owner))).
			send(p.cacheNet, "R").
			kase(nil, putAckTo(sender)...).
			done(),
		newSnip("d-putm-m-stale", "Dir", "M", "M", onMsg(p.reqNet)).
			guard(expr.And(isReq("PutM"), expr.Neq(sender, owner))).
			send(p.cacheNet, "R").
			kase(nil, putAckTo(sender)...).
			done(),

		// Downgrade and ownership-transfer completion.
		newSnip("d-downack", "Dir", "B_S", "S", onMsg(p.ackNet)).
			guard(isAck("DownAck")).
			kase(nil, eq("Sharers", expr.SetAdd(expr.Singleton(req), owner))).
			done(),
		newSnip("d-bs-stall", "Dir", "B_S", "", onMsg(p.reqNet)).stall().done(),
		newSnip("d-ownack", "Dir", "B_O", "M", onMsg(p.ackNet)).
			guard(isAck("OwnAck")).
			kase(nil, eq("Owner", req)).
			done(),
		newSnip("d-bo-stall", "Dir", "B_O", "", onMsg(p.reqNet)).stall().done(),
	}
}

func msiInvariants(p *msiParts) []mc.Invariant {
	cache, dir := p.cache, p.dir
	return []mc.Invariant{
		// SWMR: M_I/S_I/I_I are stale-pending, never read, and may
		// overlap a new epoch (see the VI discussion).
		mc.SWMR(cache, []string{"M"}, []string{"S", "S_M"}),
		// Directory bookkeeping accuracy (the §2 anecdote's invariant
		// class): every stable sharer is tracked while the directory is
		// in S.
		dirAccuracy("dir-sharers-accuracy", dir, cache, "S", []string{"S", "S_M"}, "Sharers"),
		dirAccuracy("dir-owner-accuracy", dir, cache, "M", []string{"M"}, "Owner"),
		// No cache holds M while the directory believes the line is
		// unowned or shared.
		noWriterUnderUnownedDir("no-M-under-unowned-dir", dir, cache, "M"),
	}
}
