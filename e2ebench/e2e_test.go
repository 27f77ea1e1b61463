package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"transit/internal/bench"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/obs"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestOraclesCountWrongAnswers feeds a wrong expression and a wrong state
// count through the closed loop and expects both ops counted as failed.
func TestOraclesCountWrongAnswers(t *testing.T) {
	var row bench.Table3Benchmark
	for _, b := range bench.Table3Benchmarks() {
		if b.Name == "max2-functional" {
			row = b
		}
	}
	p, exs, err := table3Problem(row)
	if err != nil {
		t.Fatal(err)
	}
	wrongExpr := op{name: "wrong-expression", run: func(context.Context) (func() error, opStats, error) {
		return func() error { return verifyConsistent(p, p.Vars[0], exs) }, opStats{}, nil
	}}
	wrongStates := op{name: "wrong-states", run: func(context.Context) (func() error, opStats, error) {
		res := &mc.Result{OK: true, Complete: true, States: checkRows[0].states + 1}
		return func() error { return checkResult(checkRows[0], res) }, opStats{}, nil
	}}
	k, err := newHostKernel()
	if err != nil {
		t.Fatal(err)
	}
	got, err := runTimed(context.Background(), []op{wrongExpr, wrongStates}, 1, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	if got.attempted != 2 || got.failed != 2 || got.passes != 1 {
		t.Fatalf("attempted %d, failed %d in %d passes; want both of 2 ops failed in one pass",
			got.attempted, got.failed, got.passes)
	}

	a, b := p.Vars[0], p.Vars[1]
	if err := verifyConsistent(p, expr.Ite(expr.Gt(a, b), a, b), exs); err != nil {
		t.Fatalf("oracle rejects the right answer: %v", err)
	}
}

// TestEndToEndDividesByHostIndex pins the end-to-end arithmetic: each
// op's mean latency over the host index, and the median pass's RSS.
func TestEndToEndDividesByHostIndex(t *testing.T) {
	timed := timedResult{
		byOp:      map[string][]float64{"a": {0.1, 0.3}, "b": {0.4}},
		hostIndex: 2,
		passRSSMB: []float64{10, 30, 12},
	}
	want := map[string]float64{"setup_s": 5, "ops_per_s": 2 / 0.3, "op_p50_ms": 150, "peak_rss_mb": 12}
	for _, m := range endToEnd(5, timed) {
		if math.Abs(m.value-want[m.name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", m.name, m.value, want[m.name])
		}
	}
}

// TestHostMeterShare checks that the meter times one kernel before an op
// and, after a long op, enough kernels to reach kernelShare of op time.
func TestHostMeterShare(t *testing.T) {
	k, err := newHostKernel()
	if err != nil {
		t.Fatal(err)
	}
	h := k.meter()
	h.before()
	if h.runs != 1 || h.index() <= 0 {
		t.Fatalf("%d timed kernels, index %v; want one and a positive index", h.runs, h.index())
	}
	h.after(time.Second)
	h.before()
	if float64(h.kernel) < kernelShare*float64(time.Second) || h.runs < 2 {
		t.Errorf("%d kernels took %v after a 1s op; want at least %v", h.runs, h.kernel,
			time.Duration(kernelShare*float64(time.Second)))
	}
}

// TestSmoke drives each workload with its first op through the traced
// phase and checks the oracles, the metric names and that the layer self
// times plus the unattributed time add up to the traced wall.
func TestSmoke(t *testing.T) {
	want := benchmarkMetrics(t)
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops, err := w.setup(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ops = ops[:1]
			tr := runTraced(ctx, ops, 1, nil)
			if tr.failed != 0 {
				t.Fatalf("%d of %d traced ops failed", tr.failed, tr.attempted)
			}
			if sum := reconciled(tr); math.Abs(sum.Seconds()-tr.wall.Seconds()) > 0.01*tr.wall.Seconds() {
				t.Errorf("layer self times + unattributed = %v, traced wall = %v (spans by layer: %v)",
					sum, tr.wall, tr.selfByLayer)
			}
			var pr probeResult
			if ops[0].probe != nil {
				if err := ops[0].probe(&pr); err != nil {
					t.Fatal(err)
				}
			}
			timed := timedResult{attempted: 1, hostIndex: 1}
			for _, m := range append(endToEnd(0, timed), perLayer(timed, tr, pr)...) {
				if !metricName.MatchString(m.name) || m.unit == "" {
					t.Errorf("metric %q has unit %q", m.name, m.unit)
				}
				if u, ok := want[m.name]; !ok || u != m.unit {
					t.Errorf("metric %s [%s] is not in BENCHMARK.json as such (%q)", m.name, m.unit, u)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("metric %s = %v", m.name, m.value)
				}
			}
		})
	}
}

// TestAttributeOverlappingChildren pins self time as duration minus the
// union of the children, clipped to the parent.
func TestAttributeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(id, parent uint64, name string, from, to int) obs.SpanData {
		return obs.SpanData{ID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(from) * time.Second), Duration: time.Duration(to-from) * time.Second}
	}
	var tr tracedResult
	tr.attribute([]obs.SpanData{
		at(1, 0, "bench.core.RunCaseStudyCtx", 0, 10),
		at(2, 1, "engine.job", 1, 4),
		at(3, 1, "engine.job", 3, 6),
		at(4, 3, "synth.cegis", 5, 8), // overruns its parent: clipped to 5..6
		at(5, 0, "bench.mc.CheckCtx", 12, 14),
	})
	// The two engine.job spans overlap, as concurrent jobs would, so
	// their self times (3s and 2s) add up to more than the 1..6 they cover.
	for layer, want := range map[string]time.Duration{"core": 5, "engine": 5, "synth": 1, "mc": 2} {
		if got := tr.selfByLayer[layer]; got != want*time.Second {
			t.Errorf("%s self = %v, want %ds", layer, got, want)
		}
	}
	if tr.covered != 12*time.Second {
		t.Errorf("roots cover %v, want 12s", tr.covered)
	}
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// benchmarkMetrics maps every metric BENCHMARK.json names to its unit.
func benchmarkMetrics(t *testing.T) map[string]string {
	b := readBenchmark(t)
	units := map[string]string{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads and run length, and exactly the metrics each mode prints.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why == "" {
			t.Errorf("workload %d: %+v, want %s with a reason", i, b.Workloads[i], w.name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %+v: want a bound in (0, 0.25] and a direction", m)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %+v: want a direction and no bound", m)
		}
	}
	var tr tracedResult
	tr.attribute(nil)
	tr.reg = obs.NewRegistry()
	timed := timedResult{attempted: 1}
	for _, c := range []struct {
		mode string
		got  []metric
		want []benchmarkMetric
	}{
		{"end_to_end", endToEnd(0, timed), b.EndToEnd},
		{"per_layer", perLayer(timed, tr, probeResult{}), b.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", c.mode, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: program %s [%s], BENCHMARK.json %s [%s]",
					c.mode, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

// TestBaselineArtifact parses the committed recorded run and checks its
// header, its four workloads and every metric name.
func TestBaselineArtifact(t *testing.T) {
	data, err := os.ReadFile("testdata/BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		bench.Header
		Seed      int64            `json:"seed"`
		Seconds   int              `json:"seconds"`
		Runs      int              `json:"runs"`
		Workloads []map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.Benchmark != "e2e" || art.NumCPU < 1 || art.GOMAXPROCS < 1 || art.GoVersion == "" {
		t.Errorf("header %+v", art.Header)
	}
	if art.Seed == 0 || art.Seconds < 1 || art.Runs < 1 {
		t.Errorf("seed %d, seconds %d, runs %d", art.Seed, art.Seconds, art.Runs)
	}
	b := readBenchmark(t)
	if len(art.Workloads) != len(workloads) {
		t.Fatalf("%d workloads recorded, want %d", len(art.Workloads), len(workloads))
	}
	for i, row := range art.Workloads {
		if row["name"] != workloads[i].name || row["failed"] != 0.0 {
			t.Errorf("workload %d: name %v, failed %v", i, row["name"], row["failed"])
		}
		for _, m := range b.EndToEnd {
			if v, ok := row[m.Name].(float64); !ok || v <= 0 {
				t.Errorf("%v: end-to-end %s = %v", row["name"], m.Name, row[m.Name])
			}
		}
		layer, _ := row["per_layer"].(map[string]any)
		for _, m := range b.PerLayer {
			if _, ok := layer[m.Name].(float64); !ok {
				t.Errorf("%v: per-layer %s missing", row["name"], m.Name)
			}
		}
	}
}
