// Command transit-bench regenerates the tables and figures of the paper's
// evaluation section:
//
//	transit-bench -table2          CEGIS trace for max(a, b)
//	transit-bench -table3 [-long]  expression-inference benchmarks
//	transit-bench -fig5            pruned vs. exhaustive enumeration
//	transit-bench -table4 [-n N]   VI and MSI synthesis + model checking
//	transit-bench -table5 [-n N]   case-study workflow metrics
//	transit-bench -engine [-workers N] [-out F]
//	                               serial vs. parallel job-engine synthesis
//	transit-bench -enum [-enum-trials T] [-enum-out F]
//	                               restart-per-round baseline vs. the
//	                               default bank-reusing enumerative search
//	transit-bench -mc [-mc-n N] [-mc-states S] [-mc-workers W] [-mc-out F]
//	                               model-checker scaling: plain vs.
//	                               symmetry-reduced parallel frontier
//	transit-bench -all             everything (short variants; -mc is
//	                               separate, it runs for minutes)
//
// The observability flags every command takes (-stats, -trace,
// -stats-summary, -serve, -flight, -cpuprofile, -memprofile; see
// serve.Flags in internal/obs/serve) apply to whichever benchmarks run.
//
// Absolute numbers depend on the machine; the shapes to compare against
// the paper are described in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"transit/internal/bench"
	"transit/internal/obs/serve"
)

// benchOptions is the CLI configuration: which benchmarks run, and how.
type benchOptions struct {
	table2, table3, fig5, table4, table5, eng, enum, mc, long bool

	n, workers, enumTrials, mcN, mcStates, mcWorkers int
	out, enumOut, mcOut                              string
	noSymmetry                                       bool
	obs                                              serve.Flags
}

func main() {
	var o benchOptions
	var all bool
	flag.BoolVar(&o.table2, "table2", false, "regenerate Table 2")
	flag.BoolVar(&o.table3, "table3", false, "regenerate Table 3")
	flag.BoolVar(&o.fig5, "fig5", false, "regenerate Figure 5")
	flag.BoolVar(&o.table4, "table4", false, "regenerate Table 4")
	flag.BoolVar(&o.table5, "table5", false, "regenerate Table 5")
	flag.BoolVar(&o.eng, "engine", false, "compare serial vs. parallel job-engine synthesis")
	flag.BoolVar(&o.enum, "enum", false, "compare the restart-per-round baseline vs. the default bank-reusing enumeration")
	flag.BoolVar(&all, "all", false, "regenerate everything (short variants)")
	flag.BoolVar(&o.long, "long", false, "include long-running rows (Table 3 max-of-three; larger Figure 5 trials)")
	flag.IntVar(&o.n, "n", 4, "cache count for Tables 4 and 5 and the engine comparison (the paper runs 4)")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel worker count for -engine")
	flag.StringVar(&o.out, "out", "BENCH_engine.json", "JSON artifact path for -engine (empty = none)")
	flag.IntVar(&o.enumTrials, "enum-trials", 3, "timing trials per mode for -enum (minimum is reported)")
	flag.StringVar(&o.enumOut, "enum-out", "BENCH_enum.json", "JSON artifact path for -enum (empty = none)")
	flag.BoolVar(&o.mc, "mc", false, "compare plain vs. symmetry-reduced model checking at scale")
	flag.IntVar(&o.mcN, "mc-n", 6, "cache count for -mc")
	flag.IntVar(&o.mcStates, "mc-states", 1_000_000, "state budget per -mc checker run")
	flag.IntVar(&o.mcWorkers, "mc-workers", runtime.NumCPU(), "frontier worker count for the model checker (-table4, -table5, -mc)")
	flag.BoolVar(&o.noSymmetry, "no-symmetry", false, "disable PID-symmetry reduction in -table4/-table5 model checking (-mc always compares both modes)")
	flag.StringVar(&o.mcOut, "mc-out", "BENCH_mc.json", "JSON artifact path for -mc (empty = none)")
	o.obs.Register(flag.CommandLine)
	flag.Parse()
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintf(os.Stderr, "transit-bench: warning: GOMAXPROCS=1 (NumCPU=%d): worker pools timeshare one CPU, so -engine and -mc parallel speedups measure algorithmic savings only\n",
			runtime.NumCPU())
	}
	if !o.table2 && !o.table3 && !o.fig5 && !o.table4 && !o.table5 && !o.eng && !o.enum && !o.mc && !all {
		flag.Usage()
		os.Exit(2)
	}
	if all {
		o.table2, o.table3, o.fig5, o.table4, o.table5, o.eng, o.enum = true, true, true, true, true, true, true
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "transit-bench:", err)
		os.Exit(1)
	}
}

// run regenerates the selected benchmarks, stopping at the first error.
func run(o benchOptions) (err error) {
	cmd, ctx, err := serve.Open("transit-bench", o.obs)
	if err != nil {
		return err
	}
	defer cmd.Close(&err)

	if o.table2 {
		final, stats, err := bench.Table2Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(stats.Trace, final))
		fmt.Printf("(%d iterations, %d SMT queries, %s)\n\n", stats.Iterations, stats.SMTQueries,
			stats.Elapsed.Round(1000*1000))
	}
	if o.table3 {
		rows, err := bench.Table3Ctx(ctx, bench.Table3Options{IncludeLong: o.long})
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable3(rows))
	}
	if o.fig5 {
		opts := bench.DefaultFig5Options()
		if o.long {
			opts.Trials = 5
			opts.ExhaustiveCap = 30_000_000
		}
		pts, err := bench.Fig5Ctx(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFig5(pts))
	}
	knobs := bench.CheckKnobs{Workers: o.mcWorkers, Symmetry: !o.noSymmetry}
	if o.table4 {
		rows, err := bench.Table4Ctx(ctx, o.n, knobs)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable4(rows))
	}
	if o.table5 {
		rows, err := bench.Table5Ctx(ctx, o.n, knobs)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable5(rows))
	}
	if o.eng {
		rows, err := bench.EngineBenchCtx(ctx, o.n, o.workers)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatEngine(rows))
		if o.out != "" {
			if err := bench.WriteEngineArtifact(o.out, o.workers, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.out)
		}
	}
	if o.enum {
		res, err := bench.EnumBenchCtx(ctx, o.enumTrials)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatEnum(res))
		if o.enumOut != "" {
			if err := bench.WriteEnumArtifact(o.enumOut, res); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.enumOut)
		}
	}
	if o.mc {
		res, err := bench.MCBenchCtx(ctx, o.mcN, o.mcWorkers, o.mcStates)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatMC(res))
		if o.mcOut != "" {
			if err := bench.WriteMCArtifact(o.mcOut, o.mcWorkers, res); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.mcOut)
		}
	}
	return nil
}
