package bench

import (
	"fmt"
	"strings"
)

// FormatTable2 renders the CEGIS trace like the paper's Table 2.
func FormatTable2(rows []Table2Row, final string) string {
	var sb strings.Builder
	sb.WriteString("Table 2: SolveConcolic trace for max(a, b)\n")
	fmt.Fprintf(&sb, "%-5s %-32s %-44s %s\n", "Iter", "Expression checked", "Witness", "Concrete example inferred")
	for _, r := range rows {
		witness, ex := r.Witness, r.NewExample
		if witness == "" {
			witness, ex = "-- (consistent)", "--"
		}
		fmt.Fprintf(&sb, "%-5d %-32s %-44s %s\n", r.Iter, r.Candidate, witness, ex)
	}
	fmt.Fprintf(&sb, "Final expression: %s\n", final)
	return sb.String()
}

// FormatTable3 renders the benchmark suite like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: expression-inference benchmarks\n")
	fmt.Fprintf(&sb, "%-24s %-52s %5s %5s %12s %6s %5s %9s\n",
		"Benchmark", "Description", "Size", "Cons", "Time", "Iters", "SMT", "Conflicts")
	for _, r := range rows {
		switch {
		case r.Skipped:
			fmt.Fprintf(&sb, "%-24s %-52s %5d %5s %12s\n",
				r.Name, r.Description, r.ExpectedSize, "-", "skipped (-long)")
		case r.Stop != nil:
			fmt.Fprintf(&sb, "%-24s %-52s %5d %5d %12s %6d %5d %9d\n",
				r.Name, r.Description, r.ExpectedSize, r.Constraints,
				r.Time.Round(1000*1000), r.Iterations, r.SMTQueries, r.Conflicts)
			fmt.Fprintf(&sb, "%-24s   stopped: %s after %d candidates\n", "", stopName(r.Stop), r.Enumerated)
		default:
			fmt.Fprintf(&sb, "%-24s %-52s %5d %5d %12s %6d %5d %9d\n",
				r.Name, r.Description, r.FoundSize, r.Constraints,
				r.Time.Round(1000*1000), r.Iterations, r.SMTQueries, r.Conflicts)
			fmt.Fprintf(&sb, "%-24s   found: %s\n", "", r.Found)
		}
	}
	sb.WriteString("(SMT and Conflicts are the \"smt.queries\" and \"sat.conflicts\" counters from\n each row's metrics registry)\n")
	return sb.String()
}

// FormatFig5 renders the pruned-vs-exhaustive series (the paper plots it
// log-scale; we emit the series and the ratio).
func FormatFig5(points []Fig5Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: expressions explored by SolveConcrete (avg per target size)\n")
	fmt.Fprintf(&sb, "%5s %16s %16s %10s\n", "Size", "Pruned", "Exhaustive", "Ratio")
	for _, p := range points {
		switch {
		case p.ExhaustiveRan && p.ExhaustiveCapped:
			fmt.Fprintf(&sb, "%5d %16.0f %14.0f+ %8.1fx+\n", p.Size, p.PrunedAvg, p.ExhaustiveAvg,
				p.ExhaustiveAvg/p.PrunedAvg)
		case p.ExhaustiveRan:
			fmt.Fprintf(&sb, "%5d %16.0f %16.0f %9.1fx\n", p.Size, p.PrunedAvg, p.ExhaustiveAvg,
				p.ExhaustiveAvg/p.PrunedAvg)
		default:
			fmt.Fprintf(&sb, "%5d %16.0f %16s %10s\n", p.Size, p.PrunedAvg, "(omitted)", "-")
		}
	}
	sb.WriteString("('+' marks exhaustive runs cut off at the enumeration cap: lower bounds,\n the paper's memory-limit case)\n")
	return sb.String()
}

// FormatTable4 renders protocol-synthesis throughput like the paper's
// Table 4.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: performance of snippet-based design\n")
	fmt.Fprintf(&sb, "%-9s %7s %9s | %7s %9s %9s | %7s %9s %9s | %10s %9s\n",
		"Protocol", "Caches", "Scenarios",
		"Updates", "Exps", "Time",
		"Guards", "Exps", "Time",
		"States", "MC time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %7d %9d | %7d %9d %9s | %7d %9d %9s | %10d %9s\n",
			r.Protocol, r.NumCaches, r.Scenarios,
			r.UpdatesSynth, r.UpdateExprs, r.UpdateTime.Round(1000*1000),
			r.GuardsSynth, r.GuardExprs, r.GuardTime.Round(1000*1000),
			r.States, r.CheckTime.Round(1000*1000))
	}
	return sb.String()
}

// FormatTable5 renders the case-study workflow metrics like the paper's
// Table 5.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	sb.WriteString("Table 5: effectiveness metrics for protocol design\n")
	fmt.Fprintf(&sb, "%-18s %8s %7s %7s %7s %12s %10s %12s\n",
		"Case study", "Initial", "Added", "Iters", "Total", "Transitions", "States", "Time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %8d %7d %7d %7d %12d %10d %12s\n",
			r.Study, r.InitialSnippets, r.AddedSnippets, r.Iterations,
			r.TotalSnippets, r.Transitions, r.FinalStates, r.Elapsed.Round(1000*1000))
	}
	return sb.String()
}
