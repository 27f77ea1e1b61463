package protocols

import (
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
)

// VI builds the VI protocol — the simplest invalidation protocol from the
// GEMS suite (Table 4): a cache line is either Valid or Invalid, with a
// blocking directory that recalls the single valid copy on a conflicting
// request. The transcription is fully symbolic, mirroring how the paper
// validated throughput by transcribing GEMS protocols into symbolic
// snippets.
//
// Structure:
//   - Caches: I, I_V (awaiting data), V, V_I (awaiting eviction ack);
//     triggers Access (load/store — VI does not distinguish) and Evict.
//   - Directory: I, V (owned), B (recall in flight); Owner and Req.
//   - ReqNet (ordered, to directory): Get/Put requests.
//   - RespNet (ordered per cache): Data, Inv, PutAck.
//   - WbNet (ordered, to directory): writeback data for recalls.
func VI(numCaches int) *Spec {
	u := expr.NewUniverse(numCaches)
	reqT := u.MustDeclareEnum("VIReqType", "Get", "Put")
	respT := u.MustDeclareEnum("VIRespType", "Data", "Inv", "PutAck")

	cache := &efsm.ProcDef{
		Name:       "Cache",
		States:     u.MustDeclareEnum("VICacheState", "I", "I_V", "V", "V_I"),
		Init:       "I",
		Replicated: true,
		Triggers:   []string{"Access", "Evict"},
	}
	dir := &efsm.ProcDef{
		Name:   "Dir",
		States: u.MustDeclareEnum("VIDirState", "I", "V", "B"),
		Init:   "I",
		Vars: []*expr.Var{
			expr.V("Owner", expr.PIDType),
			expr.V("Req", expr.PIDType),
		},
	}

	reqNet := &efsm.Network{
		Name: "ReqNet", Kind: efsm.Ordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "VIReq", Fields: []efsm.Field{
			{Name: "MType", T: expr.EnumOf(reqT)},
			{Name: "Sender", T: expr.PIDType},
		}},
	}
	respNet := &efsm.Network{
		Name: "RespNet", Kind: efsm.Ordered, Receiver: cache, Route: efsm.RouteByField, DestField: "Dest",
		Msg: &efsm.MessageType{Name: "VIResp", Fields: []efsm.Field{
			{Name: "RType", T: expr.EnumOf(respT)},
			{Name: "Dest", T: expr.PIDType},
		}},
	}
	wbNet := &efsm.Network{
		Name: "WbNet", Kind: efsm.Ordered, Receiver: dir, Route: efsm.RouteStatic,
		Msg: &efsm.MessageType{Name: "VIWb", Fields: []efsm.Field{
			{Name: "Sender", T: expr.PIDType},
		}},
	}

	sys := &efsm.System{
		Name: "VI", U: u,
		Networks: []*efsm.Network{reqNet, respNet, wbNet},
		Defs:     []*efsm.ProcDef{dir, cache},
	}
	vocab := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums:             []*expr.EnumType{reqT, respT},
		WithEnumConstants: true,
		WithoutEnumIte:    true,
	})

	self := selfVar()
	sender := field("Sender", expr.PIDType)
	mtype := field("MType", expr.EnumOf(reqT))
	rtype := field("RType", expr.EnumOf(respT))
	owner := expr.V("Owner", expr.PIDType)
	req := expr.V("Req", expr.PIDType)
	isReq := func(k string) expr.Expr { return expr.Eq(mtype, expr.EnumC(reqT, k)) }
	isResp := func(k string) expr.Expr { return expr.Eq(rtype, expr.EnumC(respT, k)) }

	snips := []*efsm.Snippet{
		// ---- cache ----
		newSnip("c-access", "Cache", "I", "I_V", onTrig("Access")).
			send(reqNet, "Out").
			kase(nil,
				eq("Out.MType", expr.EnumC(reqT, "Get")),
				eq("Out.Sender", self)).
			done(),
		newSnip("c-data", "Cache", "I_V", "V", onMsg(respNet)).
			guard(isResp("Data")).done(),
		newSnip("c-stale-ack-iv", "Cache", "I_V", "I_V", onMsg(respNet)).
			guard(isResp("PutAck")).done(),
		newSnip("c-evict", "Cache", "V", "V_I", onTrig("Evict")).
			send(reqNet, "Out").
			kase(nil,
				eq("Out.MType", expr.EnumC(reqT, "Put")),
				eq("Out.Sender", self)).
			done(),
		newSnip("c-recall-v", "Cache", "V", "I", onMsg(respNet)).
			guard(isResp("Inv")).
			send(wbNet, "Out").
			kase(nil, eq("Out.Sender", self)).
			done(),
		newSnip("c-recall-vi", "Cache", "V_I", "I", onMsg(respNet)).
			guard(isResp("Inv")).
			send(wbNet, "Out").
			kase(nil, eq("Out.Sender", self)).
			done(),
		newSnip("c-putack", "Cache", "V_I", "I", onMsg(respNet)).
			guard(isResp("PutAck")).done(),
		newSnip("c-stale-ack-i", "Cache", "I", "I", onMsg(respNet)).
			guard(isResp("PutAck")).done(),

		// ---- directory ----
		newSnip("d-get-i", "Dir", "I", "V", onMsg(reqNet)).
			guard(isReq("Get")).
			send(respNet, "R").
			kase(nil,
				eq("Owner", sender),
				eq("R.RType", expr.EnumC(respT, "Data")),
				eq("R.Dest", sender)).
			done(),
		newSnip("d-stale-put-i", "Dir", "I", "I", onMsg(reqNet)).
			guard(isReq("Put")).
			send(respNet, "R").
			kase(nil,
				eq("R.RType", expr.EnumC(respT, "PutAck")),
				eq("R.Dest", sender)).
			done(),
		newSnip("d-recall", "Dir", "V", "B", onMsg(reqNet)).
			guard(expr.And(isReq("Get"), expr.Neq(sender, owner))).
			send(respNet, "R").
			kase(nil,
				eq("Req", sender),
				eq("R.RType", expr.EnumC(respT, "Inv")),
				eq("R.Dest", owner)).
			done(),
		newSnip("d-put-owner", "Dir", "V", "I", onMsg(reqNet)).
			guard(expr.And(isReq("Put"), expr.Eq(sender, owner))).
			send(respNet, "R").
			kase(nil,
				eq("R.RType", expr.EnumC(respT, "PutAck")),
				eq("R.Dest", sender)).
			done(),
		newSnip("d-put-stale", "Dir", "V", "V", onMsg(reqNet)).
			guard(expr.And(isReq("Put"), expr.Neq(sender, owner))).
			send(respNet, "R").
			kase(nil,
				eq("R.RType", expr.EnumC(respT, "PutAck")),
				eq("R.Dest", sender)).
			done(),
		newSnip("d-wb", "Dir", "B", "V", onMsg(wbNet)).
			send(respNet, "R").
			kase(nil,
				eq("Owner", req),
				eq("R.RType", expr.EnumC(respT, "Data")),
				eq("R.Dest", req)).
			done(),
		newSnip("d-busy-stall", "Dir", "B", "", onMsg(reqNet)).stall().done(),
	}

	spec := &Spec{
		Name: "VI", Sys: sys, Vocab: vocab, Snippets: snips,
		Cache: cache, Dir: dir,
	}
	// V_I is excluded from the mutual-exclusion set: a cache whose Put has
	// already been processed lingers in V_I (stale, never read) until its
	// PutAck arrives, legitimately overlapping a fresh owner. The blocking
	// directory guarantees a current copy (V) is exclusive.
	spec.Invariants = []mc.Invariant{
		mc.AtMostOne(cache, "V"),
		dirAccuracy("dir-owner-accuracy", dir, cache, "V", []string{"V"}, "Owner"),
	}
	return spec
}
