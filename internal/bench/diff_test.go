package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

const oldArtifact = `{
  "benchmark": "enum",
  "generated_unix": 1700000000,
  "geomean_speedup": 2.0,
  "rows": [
    {"name": "max2", "found": true,
     "sequential": {"time_ms": 100.0, "enumerated": 500},
     "default":    {"time_ms": 40.0}},
    {"name": "guarded", "found": true,
     "sequential": {"time_ms": 10.0}}
  ]
}`

const newArtifact = `{
  "benchmark": "enum",
  "generated_unix": 1700009999,
  "geomean_speedup": 2.1,
  "rows": [
    {"name": "guarded", "found": true,
     "sequential": {"time_ms": 20.0}},
    {"name": "max2", "found": true,
     "sequential": {"time_ms": 50.0, "enumerated": 480},
     "default":    {"time_ms": 40.0}},
    {"name": "fresh-row",
     "sequential": {"time_ms": 5.0}}
  ]
}`

func TestDiffArtifacts(t *testing.T) {
	d, err := DiffArtifacts([]byte(oldArtifact), []byte(newArtifact))
	if err != nil {
		t.Fatal(err)
	}
	if d.Benchmark != "enum" {
		t.Fatalf("benchmark %q", d.Benchmark)
	}
	// Three comparable timing leaves: rows are matched by name despite
	// reordering, and only metric leaves count ("enumerated" and the
	// header's geomean_speedup are ignored).
	ratios := map[string]float64{}
	for _, r := range d.Rows {
		ratios[r.Path] = r.Ratio
	}
	want := map[string]float64{
		"rows[max2].sequential.time_ms":    0.5,
		"rows[max2].default.time_ms":       1.0,
		"rows[guarded].sequential.time_ms": 2.0,
	}
	if len(ratios) != len(want) {
		t.Fatalf("rows: %+v", d.Rows)
	}
	for path, ratio := range want {
		if got := ratios[path]; math.Abs(got-ratio) > 1e-9 {
			t.Fatalf("%s ratio = %v, want %v", path, got, ratio)
		}
	}
	// geomean(0.5, 1.0, 2.0) = 1.0 exactly.
	if math.Abs(d.Geomean-1.0) > 1e-9 {
		t.Fatalf("geomean = %v", d.Geomean)
	}
	// The row present only in the new artifact is reported, not failed on.
	if len(d.OldOnly) != 0 {
		t.Fatalf("old-only: %v", d.OldOnly)
	}
	if len(d.NewOnly) != 1 || d.NewOnly[0] != "rows[fresh-row].sequential.time_ms" {
		t.Fatalf("new-only: %v", d.NewOnly)
	}
}

func TestDiffRejectsDifferentBenchmarks(t *testing.T) {
	_, err := DiffArtifacts([]byte(`{"benchmark":"enum"}`), []byte(`{"benchmark":"mc"}`))
	if err == nil || !strings.Contains(err.Error(), "different benchmarks") {
		t.Fatalf("err = %v", err)
	}
}

func TestDiffRegressionGate(t *testing.T) {
	slow := strings.ReplaceAll(oldArtifact, "100.0", "130.0")
	slow = strings.ReplaceAll(slow, `"sequential": {"time_ms": 10.0}`, `"sequential": {"time_ms": 13.0}`)
	d, err := DiffArtifacts([]byte(oldArtifact), []byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	// Every timing is 30% slower except the untouched default leaf;
	// geomean(1.3, 1.0, 1.3) ≈ 1.19.
	if d.Geomean < 1.15 || d.Geomean > 1.25 {
		t.Fatalf("geomean = %v", d.Geomean)
	}
	if err := d.Regression(10); err == nil {
		t.Fatal("19% regression passed a 10% threshold")
	}
	if err := d.Regression(25); err != nil {
		t.Fatalf("19%% regression failed a 25%% threshold: %v", err)
	}
	// Threshold <= 0 is report-only.
	if err := d.Regression(0); err != nil {
		t.Fatalf("report-only mode failed: %v", err)
	}
}

func TestDiffFormat(t *testing.T) {
	d, err := DiffArtifacts([]byte(oldArtifact), []byte(newArtifact))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	d.Format(&sb)
	out := sb.String()
	for _, want := range []string{
		"bench-diff: enum (3 metric rows)",
		"rows[max2].sequential.time_ms",
		"-50.0%",
		"+100.0%",
		"rows[fresh-row].sequential.time_ms: only in new artifact",
		"geomean: 1.0000x",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffMetricSuffixes compares _s, _per_s and _mb leaves next to _ms
// ones, with a rate's ratio inverted so that > 1 stays a regression.
func TestDiffMetricSuffixes(t *testing.T) {
	o := `{"benchmark": "e2e", "setup_s": 2.0, "ops_per_s": 100.0, "peak_rss_mb": 50.0, "op_p50_ms": 4.0, "states": 9}`
	n := `{"benchmark": "e2e", "setup_s": 1.0, "ops_per_s": 125.0, "peak_rss_mb": 55.0, "op_p50_ms": 4.0, "states": 7}`
	d, err := DiffArtifacts([]byte(o), []byte(n))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 0.5, "ops_per_s": 0.8, "peak_rss_mb": 1.1, "op_p50_ms": 1}
	if len(d.Rows) != len(want) {
		t.Fatalf("rows: %+v", d.Rows)
	}
	for _, r := range d.Rows {
		if w, ok := want[r.Path]; !ok || math.Abs(r.Ratio-w) > 1e-9 {
			t.Errorf("%s ratio = %v, want %v", r.Path, r.Ratio, w)
		}
	}
	var sb strings.Builder
	d.Format(&sb)
	if !strings.Contains(sb.String(), "100.000/s ->    125.000/s  +25.0% (higher is better)") {
		t.Errorf("rate row not rendered as a rate:\n%s", sb.String())
	}
}

// TestDiffDirectionsMatchBenchmark checks the suffix rule against the
// "better" field of every end-to-end metric BENCHMARK.json declares. It
// only reads the file.
func TestDiffDirectionsMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no end-to-end metrics")
	}
	for _, m := range decl.EndToEnd {
		_, higher, ok := metricLeaf(m.Name)
		if !ok {
			t.Errorf("%s: bench-diff does not compare it", m.Name)
			continue
		}
		if got := map[bool]string{true: "higher", false: "lower"}[higher]; got != m.Better {
			t.Errorf("%s: bench-diff takes %s as better, BENCHMARK.json %s", m.Name, got, m.Better)
		}
	}
}
