package main

import "time"

// metric is one reported number. Every name matches [A-Za-z0-9_.-]+ and
// BENCHMARK.json lists each one with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd are the numbers a user of the system sees, all measured with
// tracing off and timing the ops alone, not the oracles. An op's time is
// its mean latency over the run divided by the run's host index, so the
// times read as on the reference host (see hostMeter); the mean, like
// the index, weighs every part of the run alike, where a low percentile
// or the median followed the host's quiet or busy spells. ops_per_s is
// the rate of one client running a pass at those times and op_p50_ms the
// median of them; every pass runs the same ops, so on check ops_per_s is
// proportional to states per second. There is no tail metric: on a
// shared host the tail follows the host's bursts, not the program.
// peak_rss_mb is the median over passes, so one disturbed pass does not
// move it.
func endToEnd(setupS float64, t timedResult) []metric {
	var times []float64
	var pass float64
	for _, lat := range t.byOp {
		op := mean(lat) / t.hostIndex
		times = append(times, op)
		pass += op
	}
	return []metric{
		{"setup_s", setupS, "s"},
		{"ops_per_s", ratio(float64(len(times)), pass), "ops/s"},
		{"op_p50_ms", median(times) * 1000, "ms"},
		{"peak_rss_mb", median(t.passRSSMB), "MB"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer are the single-layer numbers: self times and counters from
// the traced phase, the efsm probe, per-row checker rates and Go runtime
// deltas from the timed phase. A layer a workload does not reach reads 0.
func perLayer(t timedResult, tr tracedResult, pr probeResult) []metric {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	count := func(name string) float64 { return float64(tr.reg.Get(name)) }
	enumerate := sec(tr.spanSelf("synth.enumerate", "synth.size"))
	sat := sec(tr.selfByLayer["sat"])
	hits := count("engine.cache.mem_hits") + count("engine.cache.disk_hits")
	unattributed := tr.wall - tr.covered
	ms := []metric{
		{"synth.self_s", sec(tr.selfByLayer["synth"]), "s"},
		{"synth.enumerate_s", enumerate, "s"},
		{"synth.cegis_s", sec(tr.spanSelf("synth.cegis", "synth.iteration")), "s"},
		{"synth.candidates", count("synth.candidates"), "count"},
		{"synth.candidates_per_s", ratio(count("synth.candidates"), enumerate), "1/s"},
		{"synth.kept_ratio", ratio(count("synth.kept"), count("synth.candidates")), "ratio"},
		{"synth.cegis_iterations", count("synth.cegis_iterations"), "count"},
		{"synth.bank_reused", count("synth.bank_reused"), "count"},
		{"synth.bank_fallback", count("synth.bank_fallback"), "count"},
		{"synth.interp_pruned", count("synth.interp_pruned"), "count"},
		{"sat.self_s", sat, "s"},
		{"sat.conflicts", count("sat.conflicts"), "count"},
		{"sat.propagations", count("sat.propagations"), "count"},
		{"sat.propagations_per_s", ratio(count("sat.propagations"), sat), "1/s"},
		{"smt.self_s", sec(tr.selfByLayer["smt"]), "s"},
		{"smt.encode_s", sec(tr.spanSelf("smt.encode")), "s"},
		{"smt.queries", count("smt.queries"), "count"},
		{"smt.clauses", count("smt.clauses"), "count"},
		{"smt.clause_reuse_ratio", ratio(count("smt.clauses_reused"), count("smt.clauses")+count("smt.clauses_reused")), "ratio"},
		{"engine.self_s", sec(tr.selfByLayer["engine"]), "s"},
		{"engine.cache_s", sec(tr.spanSelf("engine.cache")), "s"},
		{"engine.cache_hit_ratio", ratio(hits, hits+count("engine.cache.misses")), "ratio"},
		{"engine.jobs", count("engine.jobs"), "count"},
		{"core.self_s", sec(tr.selfByLayer["core"]), "s"},
		{"core.complete_s", sec(tr.complete), "s"},
		{"core.guard_check_s", sec(tr.spanSelf("core.guard_check")), "s"},
		{"efsm.self_s", sec(tr.selfByLayer["efsm"]), "s"},
		{"efsm.actions_us", perUS(pr.actions, pr.expanded), "us"},
		{"efsm.apply_us", perUS(pr.apply, pr.transitions), "us"},
		{"efsm.encode_us", perUS(pr.encode, pr.plainTransitions), "us"},
		{"efsm.canonicalize_us", perUS(pr.canonicalize, pr.reducedTransitions), "us"},
		{"protocols.self_s", sec(tr.selfByLayer["protocols"]), "s"},
		{"protocols.invariant_us", perUS(pr.invariant, pr.expanded), "us"},
		{"mc.self_s", sec(tr.selfByLayer["mc"]), "s"},
		{"mc.check_s", sec(tr.durBySpan["mc.bfs"]), "s"},
		{"mc.states", count("mc.states"), "count"},
		{"mc.transitions", count("mc.transitions"), "count"},
		{"mc.reduction_factor", ratio(count("mc.orbit_states"), count("mc.states")), "ratio"},
	}
	for _, r := range checkRows {
		ms = append(ms, metric{"mc.states_per_s." + r.name,
			ratio(float64(t.rowStates[r.name]), t.rowCheck[r.name].Seconds()), "states/s"})
	}
	ops := float64(t.attempted)
	return append(ms,
		metric{"go.alloc_mb_per_op", t.allocMB / ops, "MB"},
		metric{"go.gc_cycles_per_op", float64(t.gcCycles) / ops, "count"},
		metric{"obs.trace_overhead", ratio(sec(tr.opTime), sec(tr.untracedTime)), "ratio"},
		metric{"bench.host_index", t.hostIndex, "ratio"},
		metric{"bench.traced_wall_s", sec(tr.wall), "s"},
		metric{"bench.unattributed_s", sec(unattributed), "s"},
		metric{"bench.unattributed_share", ratio(sec(unattributed), sec(tr.wall)), "ratio"},
	)
}

// reconciled sums every layer's self time and the unattributed time; it
// equals the traced wall when no span was counted twice or missed.
func reconciled(tr tracedResult) time.Duration {
	sum := tr.wall - tr.covered
	for _, l := range layers {
		sum += tr.selfByLayer[l]
	}
	return sum
}
