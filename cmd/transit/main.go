// Command transit runs the full TRANSIT pipeline on a protocol written in
// the TRANSIT surface language: parse, synthesize guards and updates from
// the concolic snippets, print the completed transitions, and model check
// against the declared invariants.
//
// Usage:
//
//	transit [flags] protocol.tr
//	transit [flags] -builtin vi|msi|mesi|origin|origin-buggy
//
// Flags:
//
//	-n N            number of caches (default 3)
//	-max-size K     expression-size bound for inference (default 12)
//	-states N       model-checking state budget (default 2,000,000)
//	-deadlock       also report deadlocks (default true)
//	-dump           print every completed transition
//	-workers N      inference worker pool size (default 1 = sequential)
//	-timeout D      overall synthesis deadline, e.g. 30s (default none)
//	-stats          stream trace spans and marks as JSON lines to stderr
//	-trace F        write a Chrome trace-event JSON file to F (open it at
//	                https://ui.perfetto.dev)
//	-stats-summary  print an end-of-run span tree and metrics table
//	-cpuprofile F   write a CPU profile to F
//	-memprofile F   write a heap profile to F at exit
//	-serve ADDR     serve live introspection on ADDR: /metrics (Prometheus),
//	                /vars, /runs, /trace/live (SSE), /flight, /debug/pprof/
//	-flight F       arm the flight recorder, dumping the event tail to F on
//	                panic, cancellation, or SIGINT (-serve arms it too,
//	                defaulting to transit-flight-<pid>.ndjson)
//	-mc-progress D  model-checker heartbeat interval (default 1s, 0 disables)
//	-mc-workers N   model-checker frontier workers (default: all CPUs; the
//	                result is identical for every worker count)
//	-no-symmetry    disable symmetry reduction (by default the checker
//	                explores one canonical state per PID-permutation orbit
//	                when the protocol qualifies)
//
// Subcommands:
//
//	transit obs report [FILE] render a flight dump, a job trace (GET
//	                          /v1/jobs/{id}/trace) or a -stats NDJSON
//	                          capture, from FILE or stdin, as the
//	                          -stats-summary tree and metrics table
//	transit serve [flags]     run the synthesis job server: POST /v1/jobs
//	                          (solve and complete requests), GET
//	                          /v1/jobs/{id} (the job's envelope), SSE at
//	                          /v1/jobs/{id}/events, per-job flight-dump
//	                          traces at /v1/jobs/{id}/trace, /v1/stats,
//	                          plus the introspection endpoints, all on one
//	                          address; -cache-dir persists the memo cache
//	                          across restarts, -access-log writes each
//	                          finished job's envelope as an NDJSON line
//	                          (see `transit serve -h` and the README's
//	                          Serving section)
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
	"time"

	"transit"
	"transit/internal/bench"
	"transit/internal/efsm"
	"transit/internal/export"
	"transit/internal/expr"
	"transit/internal/obs"
	"transit/internal/obs/provenance"
	"transit/internal/obs/serve"
	"transit/internal/protocols"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "obs" {
		if err := runObs(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "transit:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "transit:", err)
			os.Exit(1)
		}
		return
	}
	var opts options
	flag.IntVar(&opts.numCaches, "n", 3, "number of caches")
	flag.IntVar(&opts.maxSize, "max-size", 12, "expression-size bound for inference")
	flag.IntVar(&opts.maxStates, "states", 2_000_000, "model-checking state budget")
	flag.BoolVar(&opts.deadlock, "deadlock", true, "check for deadlocks")
	flag.BoolVar(&opts.dump, "dump", false, "print the completed transitions")
	flag.BoolVar(&opts.msc, "msc", false, "render violations as a message-sequence chart")
	flag.StringVar(&opts.murphiOut, "murphi", "", "write the completed protocol as a Murphi model to this file")
	flag.StringVar(&opts.builtin, "builtin", "", "run a built-in protocol: "+protocols.BuiltinNames)
	flag.IntVar(&opts.workers, "workers", 1, "inference worker pool size (1 = sequential)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "overall synthesis deadline (0 = none)")
	flag.BoolVar(&opts.stats, "stats", false, "stream trace spans and marks as JSON lines to stderr")
	flag.StringVar(&opts.tracePath, "trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
	flag.BoolVar(&opts.statsSummary, "stats-summary", false, "print an end-of-run span tree and metrics table to stderr")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&opts.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&opts.serveAddr, "serve", "", "serve live introspection on this address (e.g. localhost:6969)")
	flag.StringVar(&opts.flightPath, "flight", "", "arm the flight recorder, dumping to this file on panic/cancel/SIGINT")
	flag.StringVar(&opts.ledgerPath, "ledger", "", "write the synthesis provenance ledger (NDJSON) to this file; render it with `transit obs explain`")
	flag.DurationVar(&opts.mcProgress, "mc-progress", time.Second, "model-checker heartbeat interval (0 disables)")
	flag.IntVar(&opts.mcWorkers, "mc-workers", runtime.NumCPU(), "model-checker frontier workers (identical result at any count)")
	flag.BoolVar(&opts.noSymmetry, "no-symmetry", false, "disable model-checker symmetry reduction")
	flag.Parse()
	opts.args = flag.Args()
	code, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "transit:", err)
		os.Exit(1)
	}
	if code != 0 {
		os.Exit(code)
	}
}

// options collects the CLI configuration for one run.
type options struct {
	numCaches    int
	maxSize      int
	maxStates    int
	deadlock     bool
	dump         bool
	msc          bool
	builtin      string
	murphiOut    string
	workers      int
	timeout      time.Duration
	stats        bool
	tracePath    string
	statsSummary bool
	cpuProfile   string
	memProfile   string
	serveAddr    string
	flightPath   string
	ledgerPath   string
	mcProgress   time.Duration
	mcWorkers    int
	noSymmetry   bool
	args         []string
}

// runObs handles the "transit obs" subcommand family.
func runObs(args []string) error {
	usage := fmt.Errorf("usage: transit obs report [file, default stdin] | transit obs explain [-hole H] [-violation] <ledger> | transit obs bench-diff [-threshold PCT] OLD.json NEW.json")
	if len(args) < 1 {
		return usage
	}
	switch args[0] {
	case "explain":
		return runObsExplain(args[1:])
	case "bench-diff":
		return runObsBenchDiff(args[1:])
	case "report":
	default:
		return usage
	}
	// With no file the stream is read from stdin, so a job trace pipes
	// straight in: curl .../v1/jobs/{id}/trace | transit obs report.
	var in io.Reader = os.Stdin
	switch len(args) {
	case 1:
	case 2:
		f, err := os.Open(args[1])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return usage
	}
	return obs.Report(in, os.Stdout)
}

// runObsExplain renders a provenance ledger (written by -ledger or
// fetched from a serve job) as a human-readable "why" tree.
func runObsExplain(args []string) error {
	fs := flag.NewFlagSet("obs explain", flag.ExitOnError)
	hole := fs.String("hole", "", "show one hole: a ledger ID or a label substring")
	violation := fs.Bool("violation", false, "show only the violation back-links")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: transit obs explain [-hole H] [-violation] <ledger.ndjson>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	l, err := provenance.Read(f)
	if err != nil {
		return err
	}
	return provenance.Explain(os.Stdout, l, provenance.ExplainOptions{Hole: *hole, Violations: *violation})
}

// runObsBenchDiff compares two BENCH_*.json artifacts and fails past the
// regression threshold.
func runObsBenchDiff(args []string) error {
	fs := flag.NewFlagSet("obs bench-diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0, "fail when the geomean slowdown exceeds this percentage (<= 0: report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: transit obs bench-diff [-threshold PCT] OLD.json NEW.json")
	}
	oldData, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newData, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d, err := bench.DiffArtifacts(oldData, newData)
	if err != nil {
		return err
	}
	d.Format(os.Stdout)
	return d.Regression(*threshold)
}

// mcInterval maps the -mc-progress flag to mc's convention: the flag's 0
// means "off", mc's 0 means "default", negative means "off".
func mcInterval(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// run executes the pipeline and returns the process exit code (0 ok, 2
// model-check violation). Returning instead of calling os.Exit directly
// lets the observability session flush trace files and profiles first.
func run(opts options) (int, error) {
	proto, err := loadProtocol(opts)
	if err != nil {
		return 0, err
	}

	var ndjson io.Writer
	var summary io.Writer
	sopts := transit.SynthesisOptions{
		Limits:  transit.Limits{MaxSize: opts.maxSize},
		Workers: opts.workers,
		Timeout: opts.timeout,
	}
	if opts.stats {
		ndjson = os.Stderr
	}
	if opts.statsSummary {
		summary = os.Stderr
	}

	// The introspection server's exporters must join the session fan-out,
	// so it is built first and attached after. Serving also arms the
	// flight recorder: a run someone is watching is a run whose death
	// should leave evidence.
	var srv *serve.Server
	flightPath := opts.flightPath
	if opts.serveAddr != "" {
		srv = serve.New(opts.serveAddr)
		if flightPath == "" {
			flightPath = obs.DefaultFlightPath()
		}
	}
	oopts := obs.Options{
		NDJSON:     ndjson,
		TracePath:  opts.tracePath,
		Summary:    summary,
		FlightPath: flightPath,
		Profiling: obs.Profiling{
			CPUProfile: opts.cpuProfile,
			MemProfile: opts.memProfile,
		},
	}
	if srv != nil {
		oopts.Extra = srv.Exporters()
	}
	sess, err := obs.NewSession(oopts)
	if err != nil {
		return 0, err
	}
	if srv != nil {
		srv.Attach(sess)
		if err := srv.Start(); err != nil {
			_ = sess.Close()
			return 0, err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "transit: live introspection on http://%s/\n", srv.Addr())
	}

	// SIGINT/SIGTERM cancel the pipeline context; the partial-result paths
	// return what was explored so far and the flight recorder keeps the
	// event tail.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -ledger arms provenance capture: the recorder rides the context into
	// the completion run, the flight recorder embeds the ledger tail, and
	// pipeline() writes the NDJSON file whether or not the check passes.
	if opts.ledgerPath != "" {
		runLabel := opts.builtin
		if runLabel == "" && len(opts.args) == 1 {
			runLabel = opts.args[0]
		}
		ledger := provenance.NewRecorder(runLabel)
		ctx = provenance.WithRecorder(ctx, ledger)
		sess.Recorder.AddSnapshot("provenance", func() any { return ledger.Tail(16) })
	}

	// A panic anywhere in the pipeline dumps the flight ring before the
	// process dies — the dump is the post-mortem the stack trace lacks.
	defer func() {
		if r := recover(); r != nil {
			if path, err := sess.DumpFlight(fmt.Sprintf("panic: %v", r)); err == nil && path != "" {
				fmt.Fprintf(os.Stderr, "transit: flight dump written to %s\n", path)
			}
			panic(r)
		}
	}()

	code, err := pipeline(sess.Context(ctx), proto, sopts, opts)
	if ctx.Err() != nil {
		if path, derr := sess.DumpFlight(ctx.Err().Error()); derr == nil && path != "" {
			fmt.Fprintf(os.Stderr, "transit: flight dump written to %s\n", path)
		}
	}
	if cerr := sess.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return code, err
}

// loadProtocol resolves the -builtin flag or the .tr file argument.
func loadProtocol(opts options) (*transit.Protocol, error) {
	switch {
	case opts.builtin != "":
		return protocols.Builtin(opts.builtin, opts.numCaches)
	case len(opts.args) == 1:
		src, err := os.ReadFile(opts.args[0])
		if err != nil {
			return nil, err
		}
		return transit.LoadProtocol(string(src), opts.numCaches)
	default:
		return nil, fmt.Errorf("expected one .tr file or -builtin (see -h)")
	}
}

// pipeline runs synthesize → dump → export → model check under the
// observability context.
func pipeline(ctx context.Context, proto *transit.Protocol, sopts transit.SynthesisOptions, opts options) (int, error) {
	fmt.Printf("protocol %s with %d caches: %d snippets\n", proto.Name, opts.numCaches, len(proto.Snippets))

	// The ledger is written on every exit path — synthesis failures record
	// unrealizable/inconsistent holes, and violations are back-linked
	// before the deferred write runs.
	rec := provenance.FromCtx(ctx)
	if rec != nil && opts.ledgerPath != "" {
		defer func() {
			f, ferr := os.Create(opts.ledgerPath)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "transit: ledger:", ferr)
				return
			}
			defer f.Close()
			l := rec.Ledger()
			if werr := l.WriteNDJSON(f); werr != nil {
				fmt.Fprintln(os.Stderr, "transit: ledger:", werr)
				return
			}
			fmt.Printf("wrote provenance ledger to %s (%d holes, %d violations)\n",
				opts.ledgerPath, len(l.Holes), len(l.Violations))
		}()
	}

	rep, err := transit.SynthesizeCtx(ctx, proto, sopts)
	if err != nil {
		return 0, fmt.Errorf("synthesis: %w", err)
	}
	fmt.Printf("synthesized %d transitions in %s: %d updates (%d exprs tried), %d guards (%d exprs tried), %d SMT queries\n",
		rep.Transitions, rep.Elapsed.Round(time.Millisecond),
		rep.UpdatesSynthesized, rep.UpdateExprsTried,
		rep.GuardsSynthesized, rep.GuardExprsTried, rep.SMTQueries)
	if opts.stats {
		fmt.Printf("engine: %d workers, %d jobs, %d cache hits / %d misses, utilization %.2f\n",
			rep.Workers, rep.Jobs, rep.CacheHits, rep.CacheMisses, rep.Utilization)
	}

	if opts.dump {
		dumpTransitions(proto)
	}

	if opts.murphiOut != "" {
		src, err := export.Murphi(proto.Sys)
		if err != nil {
			return 0, fmt.Errorf("murphi export: %w", err)
		}
		if err := os.WriteFile(opts.murphiOut, []byte(src), 0o644); err != nil {
			return 0, err
		}
		fmt.Printf("wrote Murphi model to %s (%d bytes)\n", opts.murphiOut, len(src))
	}

	res, chart, err := transit.VerifyWithChartCtx(ctx, proto, transit.VerifyOptions{
		MaxStates:         opts.maxStates,
		CheckDeadlock:     opts.deadlock,
		ProgressInterval:  mcInterval(opts.mcProgress),
		Workers:           opts.mcWorkers,
		SymmetryReduction: !opts.noSymmetry,
	})
	if err != nil {
		return 0, fmt.Errorf("model checking: %w", err)
	}
	sym := ""
	if res.SymmetryApplied {
		sym = fmt.Sprintf(", symmetry x%.1f", res.ReductionFactor)
	}
	if res.OK {
		fmt.Printf("model check PASSED: %d states, %d transitions explored, depth %d%s in %s (%.0f states/sec)\n",
			res.States, res.Transitions, res.Depth, sym,
			res.Elapsed.Round(time.Millisecond), res.StatesPerSec)
		return 0, nil
	}
	fmt.Printf("model check FAILED after %d states in %s:\n%v\n",
		res.States, res.Elapsed.Round(time.Millisecond), res.Violation)
	if rec != nil {
		linkViolation(rec, proto, res.Violation)
	}
	if opts.msc {
		fmt.Printf("\nmessage-sequence chart:\n%s", chart)
	}
	return 2, nil
}

// linkViolation back-links a counterexample into the provenance ledger:
// each trace step is resolved to its (process, from state, event) join
// key against a fresh runtime — runtimes are deterministic functions of
// the system, so the refs match the checker's — and the recorder joins
// those keys to the holes whose expressions fired on the failing path.
func linkViolation(rec *provenance.Recorder, proto *transit.Protocol, v *transit.Violation) {
	rt, err := efsm.NewRuntime(proto.Sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "transit: ledger: violation back-link:", err)
		return
	}
	refs := v.StepRefs(rt)
	steps := make([]provenance.StepRecord, 0, len(refs))
	for _, ref := range refs {
		sr := provenance.StepRecord{
			Index:   ref.Index,
			Process: ref.Process,
			PID:     ref.PID,
			From:    ref.From,
			Event:   ref.Event,
			To:      ref.To,
		}
		if ref.Index >= 0 && ref.Index < len(v.Trace) {
			sr.Action = v.Trace[ref.Index].Action
		}
		steps = append(steps, sr)
	}
	rec.AddViolation(&provenance.ViolationRecord{
		Kind:   v.Kind.String(),
		Name:   v.Name,
		Detail: v.Detail,
		Steps:  steps,
	})
}

func dumpTransitions(proto *transit.Protocol) {
	for _, d := range proto.Sys.Defs {
		fmt.Printf("\nprocess %s:\n", d.Name)
		for _, t := range d.Transitions {
			if t.Defer {
				fmt.Printf("  (%s, %s) [%s] stall\n", t.From, t.Event, t.GuardString())
				continue
			}
			fmt.Printf("  (%s, %s) [%s] -> %s\n", t.From, t.Event, t.GuardString(), t.To)
			for _, u := range t.Updates {
				fmt.Printf("      %s := %s\n", u.Var, expr.Pretty(u.Rhs))
			}
			for _, s := range t.Sends {
				if s.TargetSet != nil {
					fmt.Printf("      send %s to each of %s:\n", s.Net.Name, expr.Pretty(s.TargetSet))
				} else {
					fmt.Printf("      send %s:\n", s.Net.Name)
				}
				for _, f := range s.Fields {
					fmt.Printf("        %s = %s\n", f.Field, expr.Pretty(f.Rhs))
				}
			}
		}
	}
}
