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
//	transit-infer [-max-size K] [-timeout D] [-cegis-trace] [flags] file
//
// With no file the spec is read from stdin. -timeout is an inference
// deadline, and -cegis-trace prints the Table 2 style iteration log. The
// other flags are the observability flags every command takes (-stats,
// -trace, -stats-summary, -serve, -flight, -cpuprofile, -memprofile; see
// serve.Flags in internal/obs/serve).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"transit"
	"transit/internal/lang"
	"transit/internal/obs/serve"
)

// inferOptions is the CLI configuration for one inference run.
type inferOptions struct {
	maxSize    int
	timeout    time.Duration
	cegisTrace bool
	obs        serve.Flags
}

func main() {
	var opts inferOptions
	flag.IntVar(&opts.maxSize, "max-size", 14, "expression-size bound")
	flag.BoolVar(&opts.cegisTrace, "cegis-trace", false, "print the CEGIS trace (Table 2 style)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "inference deadline, e.g. 30s (0 = none)")
	opts.obs.Register(flag.CommandLine)
	flag.Parse()
	var src []byte
	var err error
	if flag.NArg() >= 1 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err == nil {
		err = run(string(src), opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "transit-infer:", err)
		os.Exit(1)
	}
}

// parseSpec splits the statement-oriented input into a problem
// declaration; lang.SolveDecl.Elab elaborates it, as it does the job
// server's solve requests. The vocabulary is fixed: enum constants and set
// literals on, enum-valued ite off.
func parseSpec(src string) (*lang.SolveDecl, error) {
	sp := &lang.SolveDecl{NumCaches: 3,
		Vocab: lang.SolveVocab{EnumConstants: true, SetLiterals: true, WithoutEnumIte: true}}
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
			sp.NumCaches = n
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
			sp.Enums = append(sp.Enums, lang.SolveEnum{Name: name, Values: values})
		case "var", "output":
			rest := strings.TrimSpace(strings.TrimPrefix(stmt, fields[0]))
			parts := strings.SplitN(rest, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("malformed declaration: %q", stmt)
			}
			d := lang.SolveVar{Name: strings.TrimSpace(parts[0]), Type: strings.TrimSpace(parts[1])}
			if fields[0] == "var" {
				sp.Vars = append(sp.Vars, d)
			} else {
				if sp.Output != (lang.SolveVar{}) {
					return nil, fmt.Errorf("multiple output declarations")
				}
				sp.Output = d
			}
		case "example":
			rest := strings.TrimSpace(strings.TrimPrefix(stmt, "example"))
			parts := strings.SplitN(rest, "==>", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("example wants 'pre ==> post': %q", stmt)
			}
			sp.Examples = append(sp.Examples, lang.SolveExample{
				Pre:  strings.TrimSpace(parts[0]),
				Post: strings.TrimSpace(parts[1]),
			})
		default:
			return nil, fmt.Errorf("unknown statement %q", fields[0])
		}
	}
	if sp.Output == (lang.SolveVar{}) {
		return nil, fmt.Errorf("no output declaration")
	}
	if len(sp.Examples) == 0 {
		return nil, fmt.Errorf("no examples")
	}
	return sp, nil
}

func run(src string, opts inferOptions) (err error) {
	cmd, ctx, err := serve.Open("transit-infer", opts.obs)
	if err != nil {
		return err
	}
	defer cmd.Close(&err)

	sp, err := parseSpec(src)
	if err != nil {
		return err
	}
	prob, examples, err := sp.Elab()
	if err != nil {
		return err
	}
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	e, st, err := transit.SolveConcolicCtx(ctx, prob, examples, transit.Limits{MaxSize: opts.maxSize})
	if err != nil {
		return err
	}
	if opts.cegisTrace {
		for _, rec := range st.Trace {
			if rec.Accepted {
				fmt.Printf("iter %d: %-30s accepted\n", rec.Round, rec.Candidate)
			} else {
				fmt.Printf("iter %d: %-30s refuted at %s; new example out=%s\n",
					rec.Round, rec.Candidate, rec.Witness, rec.CounterOut)
			}
		}
	}
	fmt.Printf("%s\n", e)
	fmt.Printf("  pretty: %s\n", transit.Pretty(e))
	fmt.Printf("  size %d; %d CEGIS iterations, %d SMT queries, %d candidates enumerated, %s\n",
		e.Size(), st.Iterations, st.SMTQueries, st.Concrete.Enumerated,
		st.Elapsed.Round(1000*1000))
	return nil
}
