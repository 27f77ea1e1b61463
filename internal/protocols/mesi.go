package protocols

import (
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
)

// MESI extends MSI with the Exclusive optimization of case study B (§6.2):
// the first reader of an unshared line receives read-write permission
// (state E) so a subsequent write needs no coherence traffic. Following
// the case-study methodology, the MESI snippet set is the MSI set with the
// idle-directory GetS grant replaced by an exclusive grant, plus snippets
// for the new E behaviours.
//
// New pieces relative to MSI:
//   - cache state E and directory state E;
//   - message type DataE (exclusive data grant);
//   - silent E→M upgrade on Store (no coherence traffic — the point of
//     the optimization);
//   - owner-side forward and eviction handling from E, mirroring M;
//   - directory E-state request handling, mirroring M (the owner may have
//     silently upgraded, so the directory must assume writability).
func MESI(numCaches int) *Spec {
	p := msiSkeletonExt(numCaches, true)
	spec := &Spec{
		Name: "MESI", Sys: msiSystem("MESI", p), Vocab: msiVocab(p),
		Cache: p.cache, Dir: p.dir,
	}
	spec.Snippets = append(mesiBaseSnippets(p), mesiExtensionSnippets(p)...)
	spec.Invariants = mesiInvariants(p)
	return spec
}

// mesiBaseSnippets is the MSI snippet set minus the snippets the extension
// replaces (the idle-directory shared grant).
func mesiBaseSnippets(p *msiParts) []*efsm.Snippet {
	var out []*efsm.Snippet
	for _, sn := range msiSnippets(p) {
		if sn.Label == "d-gets-i" {
			continue // replaced by the exclusive grant
		}
		out = append(out, sn)
	}
	return out
}

// mesiExtensionSnippets are the E-state additions.
func mesiExtensionSnippets(p *msiParts) []*efsm.Snippet {
	self := selfVar()
	sender := field("Sender", expr.PIDType)
	mtype := field("MType", expr.EnumOf(p.reqT))
	ctype := field("CType", expr.EnumOf(p.cacheT))
	mreq := field("Req", expr.PIDType)
	owner := expr.V("Owner", expr.PIDType)
	isReq := func(k string) expr.Expr { return expr.Eq(mtype, expr.EnumC(p.reqT, k)) }
	isC := func(k string) expr.Expr { return expr.Eq(ctype, expr.EnumC(p.cacheT, k)) }
	cc := func(k string) expr.Expr { return expr.EnumC(p.cacheT, k) }
	ackC := func(k string) expr.Expr { return expr.EnumC(p.ackT, k) }

	fwdPosts := func(ack string) []efsm.Post {
		return []efsm.Post{
			eq("Data.CType", cc("Data")),
			eq("Data.Dest", mreq),
			eq("Data.Req", mreq),
			eq("Ack.AType", ackC(ack)),
			eq("Ack.Sender", self),
		}
	}

	return []*efsm.Snippet{
		// Exclusive grant replaces the shared grant when the directory is
		// idle.
		newSnip("d-gets-i-excl", "Dir", "I", "E", onMsg(p.reqNet)).
			guard(isReq("GetS")).
			send(p.cacheNet, "R").
			kase(nil,
				eq("R.CType", cc("DataE")),
				eq("R.Dest", sender),
				eq("R.Req", sender),
				eq("Owner", sender)).
			done(),
		// Directory E mirrors M: the owner may have silently upgraded.
		newSnip("d-gets-e", "Dir", "E", "B_S", onMsg(p.reqNet)).
			guard(isReq("GetS")).
			send(p.cacheNet, "F").
			kase(nil,
				eq("F.CType", cc("FwdGetS")),
				eq("F.Dest", owner),
				eq("F.Req", sender),
				eq("Req", sender)).
			done(),
		newSnip("d-getm-e", "Dir", "E", "B_O", onMsg(p.reqNet)).
			guard(expr.And(isReq("GetM"), expr.Neq(sender, owner))).
			send(p.cacheNet, "F").
			kase(nil,
				eq("F.CType", cc("FwdGetM")),
				eq("F.Dest", owner),
				eq("F.Req", sender),
				eq("Req", sender)).
			done(),
		newSnip("d-putm-e-owner", "Dir", "E", "I", onMsg(p.reqNet)).
			guard(expr.And(isReq("PutM"), expr.Eq(sender, owner))).
			send(p.cacheNet, "R").
			kase(nil,
				eq("R.CType", cc("PutAck")),
				eq("R.Dest", sender),
				eq("R.Req", sender)).
			done(),
		newSnip("d-putm-e-stale", "Dir", "E", "E", onMsg(p.reqNet)).
			guard(expr.And(isReq("PutM"), expr.Neq(sender, owner))).
			send(p.cacheNet, "R").
			kase(nil,
				eq("R.CType", cc("PutAck")),
				eq("R.Dest", sender),
				eq("R.Req", sender)).
			done(),

		// Cache-side E behaviours.
		newSnip("c-dataE-is", "Cache", "I_S", "E", onMsg(p.cacheNet)).
			kase(isC("DataE")).done(),
		newSnip("c-silent-upgrade", "Cache", "E", "M", onTrig("Store")).done(),
		newSnip("c-evict-e", "Cache", "E", "M_I", onTrig("Evict")).
			send(p.reqNet, "Out").
			kase(nil,
				eq("Out.MType", expr.EnumC(p.reqT, "PutM")),
				eq("Out.Sender", self)).
			done(),
		newSnip("c-fwdgets-e", "Cache", "E", "S", onMsg(p.cacheNet)).
			send(p.cacheNet, "Data").send(p.ackNet, "Ack").
			kase(isC("FwdGetS"), fwdPosts("DownAck")...).done(),
		newSnip("c-fwdgetm-e", "Cache", "E", "I", onMsg(p.cacheNet)).
			send(p.cacheNet, "Data").send(p.ackNet, "Ack").
			kase(isC("FwdGetM"), fwdPosts("OwnAck")...).done(),
	}
}

func mesiInvariants(p *msiParts) []mc.Invariant {
	cache, dir := p.cache, p.dir
	return []mc.Invariant{
		// E is exclusive-clean and may silently become M, so it counts as
		// a writer state for SWMR.
		mc.SWMR(cache, []string{"M", "E"}, []string{"S", "S_M"}),
		dirAccuracy("dir-sharers-accuracy", dir, cache, "S", []string{"S", "S_M"}, "Sharers"),
		dirAccuracy("dir-owner-accuracy-M", dir, cache, "M", []string{"M", "E"}, "Owner"),
		dirAccuracy("dir-owner-accuracy-E", dir, cache, "E", []string{"M", "E"}, "Owner"),
		noWriterUnderUnownedDir("no-writer-under-unowned-dir", dir, cache, "M", "E"),
	}
}
