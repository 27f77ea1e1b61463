// Command transit-infer runs expression inference (Algorithm 2 /
// SolveConcolic) on a textual example set.
//
// The input format is a sequence of ';'-terminated statements:
//
//	universe 3;                     // optional cache count (default 3)
//	enum E { c1, c2 };              // optional enum declarations
//	var a: Int;                     // input variables
//	var b: Int;
//	output o: Int;                  // the output variable
//	example true ==> (o >= a) & (o >= b) & ((o = a) | (o = b));
//	example a > b ==> o = a;        // pre ==> post
//
// Expressions use the TRANSIT surface syntax (see internal/lang).
//
// Usage:
//
//	transit-infer [-max-size K] [-timeout D] [-cegis-trace] [-stats]
//	              [-trace out.json] [-stats-summary]
//	              [-serve ADDR] [-flight F]
//	              [-cpuprofile F] [-memprofile F] [-pprof ADDR] file
//
// With no file the spec is read from stdin. -cegis-trace prints the
// Table 2 style iteration log; -trace writes a Chrome trace-event JSON
// file of the CEGIS/SMT/SAT span tree (open it at ui.perfetto.dev).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"transit"
	"transit/internal/expr"
	"transit/internal/lang"
	"transit/internal/obs"
	"transit/internal/obs/serve"
)

// inferOptions is the CLI configuration for one inference run.
type inferOptions struct {
	maxSize      int
	timeout      time.Duration
	cegisTrace   bool
	stats        bool
	tracePath    string
	statsSummary bool
	serveAddr    string
	flightPath   string
	profiling    obs.Profiling
}

func main() {
	var opts inferOptions
	flag.IntVar(&opts.maxSize, "max-size", 14, "expression-size bound")
	flag.BoolVar(&opts.cegisTrace, "cegis-trace", false, "print the CEGIS trace (Table 2 style)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "inference deadline, e.g. 30s (0 = none)")
	flag.BoolVar(&opts.stats, "stats", false, "stream statistics and trace spans as JSON lines to stderr")
	flag.StringVar(&opts.tracePath, "trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
	flag.BoolVar(&opts.statsSummary, "stats-summary", false, "print an end-of-run span tree and metrics table to stderr")
	flag.StringVar(&opts.serveAddr, "serve", "", "serve live introspection on this address (e.g. localhost:6969)")
	flag.StringVar(&opts.flightPath, "flight", "", "arm the flight recorder, dumping to this file on panic/cancel/SIGINT")
	flag.StringVar(&opts.profiling.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&opts.profiling.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&opts.profiling.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	var src []byte
	var err error
	if flag.NArg() >= 1 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fail(err)
	}
	if err := run(string(src), opts); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "transit-infer:", err)
	os.Exit(1)
}

type spec struct {
	numCaches int
	enums     []enumDecl
	vars      []varDecl
	output    *varDecl
	examples  []exampleDecl
}

type enumDecl struct {
	name   string
	values []string
}

type varDecl struct {
	name, typ string
}

type exampleDecl struct {
	pre, post string
}

// parseSpec splits the statement-oriented input; expressions are parsed by
// the TRANSIT language package.
func parseSpec(src string) (*spec, error) {
	sp := &spec{numCaches: 3}
	// Strip // comments.
	var lines []string
	for _, ln := range strings.Split(src, "\n") {
		if i := strings.Index(ln, "//"); i >= 0 {
			ln = ln[:i]
		}
		lines = append(lines, ln)
	}
	for _, stmt := range strings.Split(strings.Join(lines, "\n"), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		fields := strings.Fields(stmt)
		switch fields[0] {
		case "universe":
			if len(fields) != 2 {
				return nil, fmt.Errorf("universe wants one integer: %q", stmt)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
			sp.numCaches = n
		case "enum":
			body := strings.TrimSpace(strings.TrimPrefix(stmt, "enum"))
			open := strings.Index(body, "{")
			close := strings.LastIndex(body, "}")
			if open < 0 || close < open {
				return nil, fmt.Errorf("malformed enum: %q", stmt)
			}
			name := strings.TrimSpace(body[:open])
			var values []string
			for _, v := range strings.Split(body[open+1:close], ",") {
				values = append(values, strings.TrimSpace(v))
			}
			sp.enums = append(sp.enums, enumDecl{name: name, values: values})
		case "var", "output":
			rest := strings.TrimSpace(strings.TrimPrefix(stmt, fields[0]))
			parts := strings.SplitN(rest, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("malformed declaration: %q", stmt)
			}
			d := varDecl{name: strings.TrimSpace(parts[0]), typ: strings.TrimSpace(parts[1])}
			if fields[0] == "var" {
				sp.vars = append(sp.vars, d)
			} else {
				if sp.output != nil {
					return nil, fmt.Errorf("multiple output declarations")
				}
				sp.output = &d
			}
		case "example":
			rest := strings.TrimSpace(strings.TrimPrefix(stmt, "example"))
			parts := strings.SplitN(rest, "==>", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("example wants 'pre ==> post': %q", stmt)
			}
			sp.examples = append(sp.examples, exampleDecl{
				pre:  strings.TrimSpace(parts[0]),
				post: strings.TrimSpace(parts[1]),
			})
		default:
			return nil, fmt.Errorf("unknown statement %q", fields[0])
		}
	}
	if sp.output == nil {
		return nil, fmt.Errorf("no output declaration")
	}
	if len(sp.examples) == 0 {
		return nil, fmt.Errorf("no examples")
	}
	return sp, nil
}

func typeByName(u *expr.Universe, name string) (expr.Type, error) {
	switch name {
	case "Bool":
		return expr.BoolType, nil
	case "Int":
		return expr.IntType, nil
	case "PID":
		return expr.PIDType, nil
	case "Set":
		return expr.SetType, nil
	}
	if e, ok := u.Enum(name); ok {
		return expr.EnumOf(e), nil
	}
	return expr.Type{}, fmt.Errorf("unknown type %s", name)
}

func run(src string, opts inferOptions) error {
	sp, err := parseSpec(src)
	if err != nil {
		return err
	}
	u := transit.NewUniverse(sp.numCaches)
	var enums []*expr.EnumType
	for _, e := range sp.enums {
		et, err := u.DeclareEnum(e.name, e.values...)
		if err != nil {
			return err
		}
		enums = append(enums, et)
	}
	scope := lang.ExprScope{U: u, Vars: map[string]expr.Type{}, Enums: enums}
	var vars []*transit.Var
	for _, d := range sp.vars {
		t, err := typeByName(u, d.typ)
		if err != nil {
			return err
		}
		vars = append(vars, transit.NewVar(d.name, t))
		scope.Vars[d.name] = t
	}
	outType, err := typeByName(u, sp.output.typ)
	if err != nil {
		return err
	}
	// The output variable is visible inside posts.
	scope.Vars[sp.output.name] = outType

	var examples []transit.ConcolicExample
	for _, ex := range sp.examples {
		pre, err := lang.ParseAndElabExpr(ex.pre, scope)
		if err != nil {
			return fmt.Errorf("pre %q: %w", ex.pre, err)
		}
		post, err := lang.ParseAndElabExpr(ex.post, scope)
		if err != nil {
			return fmt.Errorf("post %q: %w", ex.post, err)
		}
		examples = append(examples, transit.ConcolicExample{Pre: pre, Post: post})
	}

	voc := transit.CoherenceVocabulary(u, transit.VocabOptions{
		Enums: enums, WithEnumConstants: true, WithSetLiterals: true, WithoutEnumIte: true,
	})
	prob := transit.Problem{U: u, Vocab: voc, Vars: vars, Output: transit.NewVar(sp.output.name, outType)}

	var ndjson, summary io.Writer
	var statsWriter io.Writer = os.Stderr
	if opts.stats {
		sw := obs.NewSyncWriter(os.Stderr)
		ndjson = sw
		statsWriter = sw
	}
	if opts.statsSummary {
		summary = os.Stderr
	}
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
		Profiling:  opts.profiling,
	}
	if srv != nil {
		oopts.Extra = srv.Exporters()
	}
	sess, err := obs.NewSession(oopts)
	if err != nil {
		return err
	}
	defer sess.Close()
	if srv != nil {
		srv.Attach(sess)
		if err := srv.Start(); err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "transit-infer: live introspection on http://%s/\n", srv.Addr())
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sess.Context(sigCtx)
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	e, st, err := transit.SolveConcolicCtx(ctx, prob, examples, transit.Limits{MaxSize: opts.maxSize})
	if err != nil {
		if path, derr := sess.DumpFlight(err.Error()); derr == nil && path != "" {
			fmt.Fprintf(os.Stderr, "transit-infer: flight dump written to %s\n", path)
		}
		return err
	}
	if opts.cegisTrace {
		for i, rec := range st.Trace {
			if rec.Witness == nil {
				fmt.Printf("iter %d: %-30s accepted\n", i+1, rec.Candidate)
			} else {
				fmt.Printf("iter %d: %-30s refuted at %v; new example out=%v\n",
					i+1, rec.Candidate, rec.Witness, rec.NewExample.Out)
			}
		}
	}
	if opts.stats {
		fmt.Fprintf(statsWriter,
			`{"type":"infer_end","size":%d,"cegis_iterations":%d,"smt_queries":%d,"candidates":%d,"duration_ms":%.3f}`+"\n",
			e.Size(), st.Iterations, st.SMTQueries, st.Concrete.Enumerated,
			float64(st.Elapsed)/float64(time.Millisecond))
	}
	fmt.Printf("%s\n", e)
	fmt.Printf("  pretty: %s\n", transit.Pretty(e))
	fmt.Printf("  size %d; %d CEGIS iterations, %d SMT queries, %d candidates enumerated, %s\n",
		e.Size(), st.Iterations, st.SMTQueries, st.Concrete.Enumerated,
		st.Elapsed.Round(1000*1000))
	return nil
}
