package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// MCModeStats is one checker mode's measurements on one protocol: the
// plain mode explores the full state space, the reduced mode explores one
// canonical representative per PID orbit. A run that exhausts the state
// budget is recorded with Complete=false rather than failing the
// benchmark — at the cache counts this benchmark targets, the unreduced
// space is supposed to be out of reach.
type MCModeStats struct {
	Time            time.Duration `json:"-"`
	TimeMS          float64       `json:"time_ms"`
	States          int           `json:"states"`
	Transitions     int           `json:"transitions"`
	Depth           int           `json:"depth"`
	StatesPerSec    float64       `json:"states_per_sec"`
	ReductionFactor float64       `json:"reduction_factor"`
	Complete        bool          `json:"complete"`
	OK              bool          `json:"ok"`
}

// MCRow compares the plain and symmetry-reduced checker on one protocol.
type MCRow struct {
	Protocol  string      `json:"protocol"`
	NumCaches int         `json:"num_caches"`
	Plain     MCModeStats `json:"plain"`
	Reduced   MCModeStats `json:"reduced"`
	// CoverageRatio is the effective full-space coverage per explored
	// state: (reduced states × mean orbit size) / plain states explored.
	// When the plain run is budget-capped this understates nothing — it
	// says how many budget-equivalents of plain exploration the reduced
	// run bought.
	CoverageRatio float64 `json:"coverage_ratio"`
}

// MCBenchResult is the whole comparison.
type MCBenchResult struct {
	NumCaches int     `json:"num_caches"`
	MaxStates int     `json:"max_states"`
	Rows      []MCRow `json:"rows"`
}

// MCBenchCtx runs the model-checker scaling benchmark: each GEMS protocol
// plus Origin at numCaches caches, checked with and without symmetry
// reduction under the same state budget and worker count. Each protocol
// is synthesized once from its snippets (same pipeline as Table 4), then
// the one runtime is checked twice. Verdicts must agree whenever both
// runs complete.
func MCBenchCtx(ctx context.Context, numCaches, workers, maxStates int) (*MCBenchResult, error) {
	if numCaches < 2 {
		numCaches = 6
	}
	if maxStates < 1 {
		maxStates = 1_000_000
	}
	res := &MCBenchResult{NumCaches: numCaches, MaxStates: maxStates}
	specs := []*protocols.Spec{
		protocols.VI(numCaches),
		protocols.MSI(numCaches),
		protocols.MESI(numCaches),
		protocols.Origin(numCaches, true),
	}
	for _, spec := range specs {
		if _, err := core.CompleteCtx(ctx, spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
			return nil, fmt.Errorf("bench: %s synthesis: %w", spec.Name, err)
		}
		rt, err := efsm.NewRuntime(spec.Sys)
		if err != nil {
			return nil, err
		}
		row := MCRow{Protocol: spec.Name, NumCaches: numCaches}
		mode := func(symmetry bool) (MCModeStats, error) {
			var st MCModeStats
			t0 := time.Now()
			r, err := mc.CheckCtx(ctx, rt, spec.Invariants, mc.Options{
				MaxStates:         maxStates,
				CheckDeadlock:     true,
				Workers:           workers,
				SymmetryReduction: symmetry,
			})
			st.Time = time.Since(t0)
			st.TimeMS = ms(st.Time)
			if err != nil {
				// A budget-capped run is a data point, not a failure; the
				// partial result carries everything the row needs.
				if r == nil || r.States < maxStates {
					return st, fmt.Errorf("bench: %s model check: %w", spec.Name, err)
				}
			}
			if err == nil && !r.OK {
				return st, fmt.Errorf("bench: %s violates invariants:\n%v", spec.Name, r.Violation)
			}
			st.States = r.States
			st.Transitions = r.Transitions
			st.Depth = r.Depth
			st.StatesPerSec = r.StatesPerSec
			st.ReductionFactor = r.ReductionFactor
			st.Complete = r.Complete
			st.OK = err == nil && r.OK
			return st, nil
		}
		if row.Plain, err = mode(false); err != nil {
			return nil, err
		}
		if row.Reduced, err = mode(true); err != nil {
			return nil, err
		}
		if row.Plain.Complete && row.Reduced.Complete && row.Plain.OK != row.Reduced.OK {
			return nil, fmt.Errorf("bench: %s: verdicts disagree: plain ok=%v, reduced ok=%v",
				spec.Name, row.Plain.OK, row.Reduced.OK)
		}
		if row.Plain.States > 0 {
			row.CoverageRatio = float64(row.Reduced.States) * row.Reduced.ReductionFactor /
				float64(row.Plain.States)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatMC renders the scaling comparison.
func FormatMC(res *MCBenchResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Model checking at %d caches, %d-state budget: plain vs. symmetry-reduced frontier\n",
		res.NumCaches, res.MaxStates)
	fmt.Fprintf(&sb, "%-10s | %9s %6s %9s %8s | %9s %6s %9s %8s %7s | %8s\n",
		"Protocol",
		"Plain", "Done", "Time", "St/s",
		"Reduced", "Done", "Time", "St/s", "Orbit",
		"Coverage")
	done := func(c bool) string {
		if c {
			return "full"
		}
		return "cap"
	}
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-10s | %9d %6s %9s %8.0f | %9d %6s %9s %8.0f %6.1fx | %7.1fx\n",
			r.Protocol,
			r.Plain.States, done(r.Plain.Complete), r.Plain.Time.Round(time.Millisecond), r.Plain.StatesPerSec,
			r.Reduced.States, done(r.Reduced.Complete), r.Reduced.Time.Round(time.Millisecond), r.Reduced.StatesPerSec,
			r.Reduced.ReductionFactor,
			r.CoverageRatio)
	}
	sb.WriteString("(Plain/Reduced are states explored; Done says whether the run finished the\n space or hit the budget cap; Orbit is the mean PID-orbit size of reduced\n states — the factor of full states each canonical state stands for;\n Coverage is reduced×orbit/plain — the effective full-space coverage won\n per plain-explored state)\n")
	return sb.String()
}

// WriteMCArtifact writes the comparison as a JSON artifact
// (BENCH_mc.json by convention).
func WriteMCArtifact(path string, workers int, res *MCBenchResult) error {
	return WriteArtifact(path, NewHeader("mc_symmetry_parallel_frontier", workers), res)
}
