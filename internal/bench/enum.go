package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"transit/internal/expr"
	"transit/internal/synth"
)

// EnumModeStats is one enumeration mode's measured work on one Table 3
// problem. Time is the minimum over the configured trials — the standard
// estimator for the noise floor of short benchmarks.
type EnumModeStats struct {
	Time       time.Duration `json:"-"`
	TimeMS     float64       `json:"time_ms"`
	Enumerated int64         `json:"enumerated"`
	Kept       int64         `json:"kept"`
	Iterations int           `json:"iterations"`
	BankReuses int           `json:"bank_reuses"`
	Restarts   int           `json:"bank_fallbacks"`
	// InterpPruned counts candidates discarded by interpretation-indexed
	// pruning (0 when reduction is off for the mode).
	InterpPruned int64 `json:"interp_pruned"`
	// Unrealizable records whether the solve proved its hole impossible
	// (always false for rows that synthesize an answer; present so
	// artifact consumers need no schema change if a row ever regresses).
	Unrealizable bool `json:"unrealizable,omitempty"`
}

// EnumRow compares the restart-per-round baseline (the seed Algorithm 1
// path: no bank reuse, no interpretation reduction) against the default
// bank-reusing interpretation-reduced search on one Table 3 inference
// problem. Both modes are answer-identical; the row quantifies the work
// and time the default search saves.
type EnumRow struct {
	Name        string        `json:"name"`
	Constraints int           `json:"constraints"`
	Found       string        `json:"found"`
	Base        EnumModeStats `json:"baseline"`
	Default     EnumModeStats `json:"default"`
	// EnumRatio is default candidates enumerated / baseline — the
	// fraction of enumeration work the default search could not avoid
	// (values > 1 mean stale-pool fallbacks outweighed resume savings on
	// this row).
	EnumRatio float64 `json:"enum_ratio"`
	Speedup   float64 `json:"speedup"`
}

// EnumBenchResult is the whole comparison plus its summary statistic.
type EnumBenchResult struct {
	// GOMAXPROCS records the scheduler parallelism the run had available.
	// The artifact's shared header carries it on the wire; this field only
	// feeds the text rendering.
	GOMAXPROCS int       `json:"-"`
	Trials     int       `json:"trials"`
	Rows       []EnumRow `json:"rows"`
	// GeomeanSpeedup is the geometric mean of the per-row speedups of the
	// default search over the baseline.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// EnumBenchCtx runs the short Table 3 rows through both modes. Every
// trial of every mode is checked for answer identity against the
// baseline and for semantic consistency by brute force, so a determinism
// regression fails the benchmark instead of skewing it.
func EnumBenchCtx(ctx context.Context, trials int) (*EnumBenchResult, error) {
	if trials < 1 {
		trials = 3
	}
	res := &EnumBenchResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Trials: trials}
	logSum := 0.0
	for _, b := range Table3Benchmarks() {
		if b.Long {
			// The 30-minute row would dominate the run; the short rows
			// already cover every vocabulary the suite uses.
			continue
		}
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			return nil, err
		}
		prob, exs := b.Build(u)
		defLimits := synth.Limits{MaxSize: b.ExpectedSize + 2, Timeout: 2 * time.Minute}
		baseLimits := defLimits
		baseLimits.NoBankReuse = true

		row := EnumRow{Name: b.Name, Constraints: len(exs)}
		run := func(limits synth.Limits) (EnumModeStats, string, error) {
			var st EnumModeStats
			var found string
			for tr := 0; tr < trials; tr++ {
				t0 := time.Now()
				e, stats, err := synth.SolveConcolicCtx(ctx, prob, exs, limits)
				d := time.Since(t0)
				if err != nil {
					return st, "", fmt.Errorf("bench: %s: %w", b.Name, err)
				}
				if tr == 0 || d < st.Time {
					st.Time = d
				}
				st.Enumerated = stats.Concrete.Enumerated
				st.Kept = stats.Concrete.Kept
				st.Iterations = stats.Iterations
				st.BankReuses = stats.BankReuses
				st.Restarts = stats.Concrete.Restarts
				st.InterpPruned = stats.Concrete.InterpPruned
				st.Unrealizable = stats.Unrealizable
				if found == "" {
					found = e.String()
					if err := verifyConsistent(prob, e, exs); err != nil {
						return st, "", fmt.Errorf("bench: %s: %w", b.Name, err)
					}
				} else if e.String() != found {
					return st, "", fmt.Errorf("bench: %s: nondeterministic answer: %s vs %s", b.Name, e, found)
				}
			}
			st.TimeMS = ms(st.Time)
			return st, found, nil
		}
		base, baseFound, err := run(baseLimits)
		if err != nil {
			return nil, err
		}
		def, defFound, err := run(defLimits)
		if err != nil {
			return nil, err
		}
		if baseFound != defFound {
			return nil, fmt.Errorf("bench: %s: mode answers differ: baseline %s, default %s",
				b.Name, baseFound, defFound)
		}
		row.Found = baseFound
		row.Base, row.Default = base, def
		if base.Enumerated > 0 {
			row.EnumRatio = float64(def.Enumerated) / float64(base.Enumerated)
		}
		if def.Time > 0 {
			row.Speedup = float64(base.Time) / float64(def.Time)
		}
		logSum += math.Log(row.Speedup)
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) > 0 {
		res.GeomeanSpeedup = math.Exp(logSum / float64(len(res.Rows)))
	}
	return res, nil
}

// FormatEnum renders the mode comparison.
func FormatEnum(res *EnumBenchResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Enumeration: restart-per-round baseline vs. interpretation-reduced bank-reusing search (identical answers, min of %d trials, GOMAXPROCS=%d)\n",
		res.Trials, res.GOMAXPROCS)
	fmt.Fprintf(&sb, "%-22s %4s | %9s %9s %5s | %9s %9s %8s %5s %6s %5s | %7s %8s\n",
		"Benchmark", "Cons",
		"BaseTime", "Enum", "Iter",
		"Time", "Enum", "Pruned", "Iter", "Reuse", "Fall",
		"EnumR", "Speedup")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-22s %4d | %9s %9d %5d | %9s %9d %8d %5d %6d %5d | %6.0f%% %7.2fx\n",
			r.Name, r.Constraints,
			r.Base.Time.Round(time.Microsecond*100), r.Base.Enumerated, r.Base.Iterations,
			r.Default.Time.Round(time.Microsecond*100), r.Default.Enumerated, r.Default.InterpPruned,
			r.Default.Iterations, r.Default.BankReuses, r.Default.Restarts,
			100*r.EnumRatio, r.Speedup)
	}
	fmt.Fprintf(&sb, "geometric-mean speedup: %.2fx\n", res.GeomeanSpeedup)
	sb.WriteString("(EnumR is default/baseline candidates enumerated — the search work the\n default search could not avoid; Pruned counts candidates discarded by\n interpretation-indexed signatures; Reuse counts rounds resumed from the\n bank, Fall rounds whose stale pools forced a restart; answers are identical\n in both modes and every trial)\n")
	return sb.String()
}

// WriteEnumArtifact writes the comparison as a JSON artifact
// (BENCH_enum.json by convention) for machine consumption.
func WriteEnumArtifact(path string, res *EnumBenchResult) error {
	return WriteArtifact(path, NewHeader("enum_baseline_vs_default", 0), res)
}
