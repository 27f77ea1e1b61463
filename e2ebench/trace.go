package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"transit/internal/obs"
)

// layers are the modules the traced phase charges time to. A span
// belongs to the layer its name starts with (synth.size → synth); a
// benchmark-owned span bench.<pkg>.<Func> belongs to <pkg>.
var layers = []string{"synth", "sat", "smt", "engine", "core", "efsm", "protocols", "mc"}

func layerOf(span string) string {
	span = strings.TrimPrefix(span, "bench.")
	layer, _, _ := strings.Cut(span, ".")
	return layer
}

// tracedResult is what the traced phase measured.
type tracedResult struct {
	attempted, failed int
	// wall is the traced phase's wall time; covered is the part of it the
	// ops' root spans cover. The rest is the benchmark's own time between
	// ops (loop, oracles, the collection before each op):
	// bench.unattributed_s.
	wall, covered time.Duration
	// selfByLayer and selfBySpan sum span self time: a span's duration
	// minus the union of its children's intervals.
	selfByLayer map[string]time.Duration
	selfBySpan  map[string]time.Duration
	// durBySpan sums whole span durations, children included.
	durBySpan map[string]time.Duration
	reg       *obs.Registry
	// opTime sums the traced ops' latencies; untracedTime is what the same
	// ops took untraced (each op's timed-phase mean).
	opTime, untracedTime time.Duration
	complete             time.Duration
}

// runTraced runs the traced phase: one pass in a seeded order under a
// collecting tracer and a fresh metrics registry.
func runTraced(ctx context.Context, ops []op, seed int64, untraced map[string][]float64) tracedResult {
	col := obs.NewCollect()
	res := tracedResult{reg: obs.NewRegistry()}
	ctx = obs.WithMetrics(obs.WithTracer(ctx, obs.NewTracer(col)), res.reg)
	start := time.Now()
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(ops)) {
		o := ops[i]
		runtime.GC() // as in the timed phase
		d, st, err := runOp(ctx, o)
		res.attempted++
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "e2ebench: traced op failed:", err)
			continue
		}
		res.opTime += d
		res.untracedTime += time.Duration(mean(untraced[o.name]) * float64(time.Second))
		res.complete += st.complete
	}
	res.wall = time.Since(start)
	res.attribute(col.Spans())
	return res
}

// attribute computes every span's self time and the union of the root
// spans. A span is clipped to its parent's interval and the union of its
// children is subtracted, so a child that outlives its parent is not
// counted outside it. Sequential spans' self times then add up to their
// root's duration; concurrent siblings add up to more than they cover.
func (r *tracedResult) attribute(spans []obs.SpanData) {
	r.selfByLayer = map[string]time.Duration{}
	r.selfBySpan = map[string]time.Duration{}
	r.durBySpan = map[string]time.Duration{}
	raw := make(map[uint64]interval, len(spans))
	for _, s := range spans {
		raw[s.ID] = interval{s.Start, s.Start.Add(s.Duration)}
	}
	clipped := make(map[uint64]interval, len(spans))
	for _, s := range spans {
		iv := raw[s.ID]
		if p, ok := raw[s.Parent]; ok {
			iv = iv.clip(p)
		}
		clipped[s.ID] = iv
	}
	children := map[uint64][]interval{}
	var roots []interval
	for _, s := range spans {
		if p, ok := clipped[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], clipped[s.ID].clip(p))
		} else {
			roots = append(roots, clipped[s.ID])
		}
	}
	for _, s := range spans {
		iv := clipped[s.ID]
		self := iv.to.Sub(iv.from) - unionLen(children[s.ID])
		r.selfBySpan[s.Name] += self
		r.selfByLayer[layerOf(s.Name)] += self
		r.durBySpan[s.Name] += s.Duration
	}
	r.covered = unionLen(roots)
}

type interval struct{ from, to time.Time }

func (iv interval) clip(p interval) interval {
	if iv.from.Before(p.from) {
		iv.from = p.from
	}
	if iv.to.After(p.to) {
		iv.to = p.to
	}
	if iv.to.Before(iv.from) {
		iv.to = iv.from
	}
	return iv
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if len(ivs) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// spanSelf sums the self time of the named spans.
func (r *tracedResult) spanSelf(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += r.selfBySpan[n]
	}
	return d
}
