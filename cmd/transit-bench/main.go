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
// Observability flags apply to whichever benchmarks run: -trace out.json
// writes a Chrome trace-event file (open at ui.perfetto.dev),
// -stats-summary prints the end-of-run span tree,
// -cpuprofile/-memprofile write Go profiles, -serve ADDR exposes the
// live introspection endpoints (the Go profilers among them) while
// benchmarks run, and -flight F arms the flight recorder.
//
// Absolute numbers depend on the machine; the shapes to compare against
// the paper are described in EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"transit/internal/bench"
	"transit/internal/obs"
	"transit/internal/obs/serve"
)

func main() {
	var (
		table2     = flag.Bool("table2", false, "regenerate Table 2")
		table3     = flag.Bool("table3", false, "regenerate Table 3")
		fig5       = flag.Bool("fig5", false, "regenerate Figure 5")
		table4     = flag.Bool("table4", false, "regenerate Table 4")
		table5     = flag.Bool("table5", false, "regenerate Table 5")
		eng        = flag.Bool("engine", false, "compare serial vs. parallel job-engine synthesis")
		enum       = flag.Bool("enum", false, "compare the restart-per-round baseline vs. the default bank-reusing enumeration")
		all        = flag.Bool("all", false, "regenerate everything (short variants)")
		long       = flag.Bool("long", false, "include long-running rows (Table 3 max-of-three; larger Figure 5 trials)")
		n          = flag.Int("n", 3, "cache count for Tables 4 and 5 and the engine comparison")
		workers    = flag.Int("workers", runtime.NumCPU(), "parallel worker count for -engine")
		out        = flag.String("out", "BENCH_engine.json", "JSON artifact path for -engine (empty = none)")
		enumTrials = flag.Int("enum-trials", 3, "timing trials per mode for -enum (minimum is reported)")
		enumOut    = flag.String("enum-out", "BENCH_enum.json", "JSON artifact path for -enum (empty = none)")
		mcBench    = flag.Bool("mc", false, "compare plain vs. symmetry-reduced model checking at scale")
		mcN        = flag.Int("mc-n", 6, "cache count for -mc")
		mcStates   = flag.Int("mc-states", 1_000_000, "state budget per -mc checker run")
		mcWorkers  = flag.Int("mc-workers", runtime.NumCPU(), "frontier worker count for the model checker (-table4, -table5, -mc)")
		noSymmetry = flag.Bool("no-symmetry", false, "disable PID-symmetry reduction in -table4/-table5 model checking (-mc always compares both modes)")
		mcOut      = flag.String("mc-out", "BENCH_mc.json", "JSON artifact path for -mc (empty = none)")

		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
		statsSummary = flag.Bool("stats-summary", false, "print an end-of-run span tree and metrics table to stderr")
		serveAddr    = flag.String("serve", "", "serve live introspection on this address (e.g. localhost:6969)")
		flightPath   = flag.String("flight", "", "arm the flight recorder, dumping to this file on panic/cancel/SIGINT")
		profiling    obs.Profiling
	)
	flag.StringVar(&profiling.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&profiling.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintf(os.Stderr, "transit-bench: warning: GOMAXPROCS=1 (NumCPU=%d): worker pools timeshare one CPU, so -engine and -mc parallel speedups measure algorithmic savings only\n",
			runtime.NumCPU())
	}
	if !*table2 && !*table3 && !*fig5 && !*table4 && !*table5 && !*eng && !*enum && !*mcBench && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if *all {
		*table2, *table3, *fig5, *table4, *table5, *eng, *enum = true, true, true, true, true, true, true
	}

	var summary io.Writer
	if *statsSummary {
		summary = os.Stderr
	}
	var srv *serve.Server
	if *serveAddr != "" {
		srv = serve.New(*serveAddr)
		if *flightPath == "" {
			*flightPath = obs.DefaultFlightPath()
		}
	}
	oopts := obs.Options{
		TracePath:  *tracePath,
		Summary:    summary,
		FlightPath: *flightPath,
		Profiling:  profiling,
	}
	if srv != nil {
		oopts.Extra = srv.Exporters()
	}
	sess, err := obs.NewSession(oopts)
	check(err)
	if srv != nil {
		srv.Attach(sess)
		check(srv.Start())
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "transit-bench: live introspection on http://%s/\n", srv.Addr())
	}
	// Exit through fail() so the session flushes even on benchmark errors,
	// and dumps the flight ring when the failure was a cancellation.
	fail := func(err error) {
		if err == nil {
			return
		}
		if path, derr := sess.DumpFlight(err.Error()); derr == nil && path != "" {
			fmt.Fprintf(os.Stderr, "transit-bench: flight dump written to %s\n", path)
		}
		_ = sess.Close()
		fmt.Fprintln(os.Stderr, "transit-bench:", err)
		os.Exit(1)
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sess.Context(sigCtx)

	if *table2 {
		final, stats, err := bench.Table2Ctx(ctx)
		fail(err)
		fmt.Println(bench.FormatTable2(stats.Trace, final))
		fmt.Printf("(%d iterations, %d SMT queries, %s)\n\n", stats.Iterations, stats.SMTQueries,
			stats.Elapsed.Round(1000*1000))
	}
	if *table3 {
		rows, err := bench.Table3Ctx(ctx, bench.Table3Options{IncludeLong: *long})
		fail(err)
		fmt.Println(bench.FormatTable3(rows))
	}
	if *fig5 {
		opts := bench.DefaultFig5Options()
		if *long {
			opts.Trials = 5
			opts.ExhaustiveCap = 30_000_000
		}
		pts, err := bench.Fig5Ctx(ctx, opts)
		fail(err)
		fmt.Println(bench.FormatFig5(pts))
	}
	knobs := bench.CheckKnobs{Workers: *mcWorkers, Symmetry: !*noSymmetry}
	if *table4 {
		rows, err := bench.Table4Ctx(ctx, *n, knobs)
		fail(err)
		fmt.Println(bench.FormatTable4(rows))
	}
	if *table5 {
		rows, err := bench.Table5Ctx(ctx, *n, knobs)
		fail(err)
		fmt.Println(bench.FormatTable5(rows))
	}
	if *eng {
		rows, err := bench.EngineBenchCtx(ctx, *n, *workers)
		fail(err)
		fmt.Println(bench.FormatEngine(rows))
		if *out != "" {
			fail(bench.WriteEngineArtifact(*out, *workers, rows))
			fmt.Printf("wrote %s\n", *out)
		}
	}
	if *enum {
		res, err := bench.EnumBenchCtx(ctx, *enumTrials)
		fail(err)
		fmt.Println(bench.FormatEnum(res))
		if *enumOut != "" {
			fail(bench.WriteEnumArtifact(*enumOut, res))
			fmt.Printf("wrote %s\n", *enumOut)
		}
	}
	if *mcBench {
		res, err := bench.MCBenchCtx(ctx, *mcN, *mcWorkers, *mcStates)
		fail(err)
		fmt.Println(bench.FormatMC(res))
		if *mcOut != "" {
			fail(bench.WriteMCArtifact(*mcOut, *mcWorkers, res))
			fmt.Printf("wrote %s\n", *mcOut)
		}
	}
	check(sess.Close())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "transit-bench:", err)
		os.Exit(1)
	}
}
