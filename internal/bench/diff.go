package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file implements `transit obs bench-diff`: a schema-light
// comparison of two BENCH_*.json artifacts. Rather than one parser per
// benchmark family, the differ walks both JSON trees in parallel —
// objects by sorted key, arrays element-wise with elements matched by
// their "name" field when they have one — and compares every numeric
// leaf whose key ends in one of the metric suffixes below. That makes it
// future-proof against new benchmark bodies as long as they keep the
// header schema and the suffixes.

// metricSuffixes are the leaf-key suffixes bench-diff compares, each with
// its unit and direction: a rate (_per_s) is better higher, a time (_ms,
// _s) or a size (_mb) lower. _per_s comes before _s, which it ends with.
var metricSuffixes = []struct {
	suffix, unit string
	higher       bool
}{
	{"_per_s", "/s", true},
	{"_ms", "ms", false},
	{"_s", "s", false},
	{"_mb", "MB", false},
}

// metricLeaf returns the suffix entry of a leaf key, or ok false when
// bench-diff does not compare it.
func metricLeaf(leaf string) (unit string, higher, ok bool) {
	for _, m := range metricSuffixes {
		if strings.HasSuffix(leaf, m.suffix) {
			return m.unit, m.higher, true
		}
	}
	return "", false, false
}

// DiffRow is one compared metric leaf.
type DiffRow struct {
	Path string  // e.g. "rows[max2-guarded].sequential.time_ms"
	Old  float64 // the value in the old artifact
	New  float64 // the value in the new artifact
	Unit string  // from the leaf's suffix: "ms", "s", "/s" or "MB"
	// Higher marks a rate, for which a higher value is better.
	Higher bool
	// Ratio is New/Old for a time or size and Old/New for a rate, so that
	// > 1 is always a regression and < 1 an improvement.
	Ratio float64
}

// DiffResult is the full comparison.
type DiffResult struct {
	Benchmark string // from the shared header; "?" when the two disagree
	Rows      []DiffRow
	// Geomean is the geometric mean of the row ratios (rows with a
	// non-positive side are excluded); 1.0 when no rows are comparable.
	Geomean float64
	// OldOnly / NewOnly are metric leaves present in just one artifact
	// (benchmark shape drift) — reported, never failed on.
	OldOnly []string
	NewOnly []string
}

// DiffArtifacts compares two artifacts in the shared header schema.
func DiffArtifacts(oldData, newData []byte) (*DiffResult, error) {
	var o, n map[string]any
	if err := json.Unmarshal(oldData, &o); err != nil {
		return nil, fmt.Errorf("bench-diff: old artifact: %w", err)
	}
	if err := json.Unmarshal(newData, &n); err != nil {
		return nil, fmt.Errorf("bench-diff: new artifact: %w", err)
	}
	d := &DiffResult{Geomean: 1}
	ob, _ := o["benchmark"].(string)
	nb, _ := n["benchmark"].(string)
	if ob != nb {
		return nil, fmt.Errorf("bench-diff: artifacts are different benchmarks: %q vs %q", ob, nb)
	}
	d.Benchmark = ob
	diffNode(d, "", o, n)
	logSum, count := 0.0, 0
	for _, r := range d.Rows {
		if r.Old > 0 && r.New > 0 {
			logSum += math.Log(r.Ratio)
			count++
		}
	}
	if count > 0 {
		d.Geomean = math.Exp(logSum / float64(count))
	}
	return d, nil
}

// diffNode walks both trees in lockstep.
func diffNode(d *DiffResult, path string, o, n any) {
	switch ov := o.(type) {
	case map[string]any:
		nv, ok := n.(map[string]any)
		if !ok {
			markOnly(d, path, o, n)
			return
		}
		keys := make([]string, 0, len(ov))
		for k := range ov {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child := joinPath(path, k)
			if nc, ok := nv[k]; ok {
				diffNode(d, child, ov[k], nc)
			} else {
				markOnly(d, child, ov[k], nil)
			}
		}
		nkeys := make([]string, 0, len(nv))
		for k := range nv {
			if _, ok := ov[k]; !ok {
				nkeys = append(nkeys, k)
			}
		}
		sort.Strings(nkeys)
		for _, k := range nkeys {
			markOnly(d, joinPath(path, k), nil, nv[k])
		}
	case []any:
		nv, ok := n.([]any)
		if !ok {
			markOnly(d, path, o, n)
			return
		}
		// Elements with a "name" field match by name (rows may be
		// reordered or added between runs); anonymous elements by index.
		oNamed, oAnon := splitNamed(ov)
		nNamed, nAnon := splitNamed(nv)
		names := make([]string, 0, len(oNamed))
		for name := range oNamed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			child := fmt.Sprintf("%s[%s]", path, name)
			if ne, ok := nNamed[name]; ok {
				diffNode(d, child, oNamed[name], ne)
			} else {
				markOnly(d, child, oNamed[name], nil)
			}
		}
		nNames := make([]string, 0, len(nNamed))
		for name := range nNamed {
			if _, ok := oNamed[name]; !ok {
				nNames = append(nNames, name)
			}
		}
		sort.Strings(nNames)
		for _, name := range nNames {
			markOnly(d, fmt.Sprintf("%s[%s]", path, name), nil, nNamed[name])
		}
		for i := 0; i < len(oAnon) || i < len(nAnon); i++ {
			child := fmt.Sprintf("%s[%d]", path, i)
			switch {
			case i >= len(nAnon):
				markOnly(d, child, oAnon[i], nil)
			case i >= len(oAnon):
				markOnly(d, child, nil, nAnon[i])
			default:
				diffNode(d, child, oAnon[i], nAnon[i])
			}
		}
	case float64:
		unit, higher, ok := metricLeaf(leafKey(path))
		if !ok {
			return
		}
		nv, ok := n.(float64)
		if !ok {
			markOnly(d, path, o, n)
			return
		}
		row := DiffRow{Path: path, Old: ov, New: nv, Unit: unit, Higher: higher, Ratio: math.NaN()}
		if ov > 0 && nv > 0 {
			row.Ratio = nv / ov
			if higher {
				row.Ratio = ov / nv
			}
		}
		d.Rows = append(d.Rows, row)
	}
}

func splitNamed(elems []any) (named map[string]any, anon []any) {
	named = map[string]any{}
	for _, e := range elems {
		if m, ok := e.(map[string]any); ok {
			if name, ok := m["name"].(string); ok && name != "" {
				named[name] = e
				continue
			}
		}
		anon = append(anon, e)
	}
	return named, anon
}

// leafKey returns the last object key of a path ("" when the path ends
// in an array index).
func leafKey(path string) string {
	if i := strings.LastIndexAny(path, "]."); i >= 0 {
		if path[i] == ']' {
			return ""
		}
		return path[i+1:]
	}
	return path
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// markOnly records a metric leaf present on only one side.
func markOnly(d *DiffResult, path string, o, n any) {
	var collect func(prefix string, v any, out *[]string)
	collect = func(prefix string, v any, out *[]string) {
		switch vv := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(vv))
			for k := range vv {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				collect(joinPath(prefix, k), vv[k], out)
			}
		case []any:
			for i, e := range vv {
				collect(fmt.Sprintf("%s[%d]", prefix, i), e, out)
			}
		case float64:
			if _, _, ok := metricLeaf(leafKey(prefix)); ok {
				*out = append(*out, prefix)
			}
		}
	}
	if o != nil {
		collect(path, o, &d.OldOnly)
	}
	if n != nil {
		collect(path, n, &d.NewOnly)
	}
}

// Format renders the per-row table and the geomean line. A row's change
// is its value's; the geomean is of the regression ratios.
func (d *DiffResult) Format(w io.Writer) {
	fmt.Fprintf(w, "bench-diff: %s (%d metric rows)\n", d.Benchmark, len(d.Rows))
	width := 0
	for _, r := range d.Rows {
		if len(r.Path) > width {
			width = len(r.Path)
		}
	}
	for _, r := range d.Rows {
		delta := "n/a"
		if r.Old > 0 && r.New > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.New/r.Old-1)*100)
		}
		if r.Higher {
			delta += " (higher is better)"
		}
		fmt.Fprintf(w, "  %-*s  %10.3f%s -> %10.3f%s  %s\n", width, r.Path, r.Old, r.Unit, r.New, r.Unit, delta)
	}
	for _, p := range d.OldOnly {
		fmt.Fprintf(w, "  %s: only in old artifact\n", p)
	}
	for _, p := range d.NewOnly {
		fmt.Fprintf(w, "  %s: only in new artifact\n", p)
	}
	fmt.Fprintf(w, "geomean: %.4fx (%+.1f%%)\n", d.Geomean, (d.Geomean-1)*100)
}

// Regression returns an error when the geomean slowdown exceeds
// thresholdPct percent; a threshold <= 0 disables the gate (report-only
// mode, the right setting when old and new ran on different machines).
func (d *DiffResult) Regression(thresholdPct float64) error {
	if thresholdPct <= 0 {
		return nil
	}
	if d.Geomean > 1+thresholdPct/100 {
		return fmt.Errorf("bench-diff: geomean regression %.1f%% exceeds threshold %.1f%%",
			(d.Geomean-1)*100, thresholdPct)
	}
	return nil
}
