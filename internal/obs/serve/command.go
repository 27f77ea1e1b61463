package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"transit/internal/obs"
)

// Flags are the observability flags every command takes (transit,
// transit-infer and transit-bench), defined once:
//
//	-stats          stream trace spans and marks as JSON lines to stderr
//	-trace F        write a Chrome trace-event JSON file to F (ui.perfetto.dev)
//	-stats-summary  print an end-of-run span tree and metrics table
//	-serve ADDR     serve live introspection on ADDR, and arm the flight
//	                recorder at transit-flight-<pid>.ndjson unless -flight is set
//	-flight F       arm the flight recorder, dumping its ring to F when the
//	                command fails: an error, a deadline, SIGINT/SIGTERM or a panic
//	-cpuprofile F   write a CPU profile to F
//	-memprofile F   write a heap profile to F at exit
type Flags struct {
	Stats        bool
	Trace        string
	StatsSummary bool
	Serve        string
	Flight       string
	CPUProfile   string
	MemProfile   string
}

// Register defines the observability flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Stats, "stats", false, "stream trace spans and marks as JSON lines to stderr")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file (view at ui.perfetto.dev)")
	fs.BoolVar(&f.StatsSummary, "stats-summary", false, "print an end-of-run span tree and metrics table to stderr")
	fs.StringVar(&f.Serve, "serve", "", "serve live introspection on this address (e.g. localhost:6969); also arms the flight recorder")
	fs.StringVar(&f.Flight, "flight", "", "arm the flight recorder, dumping to this file when the command fails (error, deadline, SIGINT/SIGTERM, panic)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// Command is the observability lifecycle of one command run: its obs
// session, its live server when -serve is set, and the context SIGINT
// and SIGTERM cancel.
type Command struct {
	Session *obs.Session

	name string
	srv  *Server
	ctx  context.Context
	stop context.CancelFunc
}

// Open builds the command's session from its flags and starts the live
// server when -serve is set. The returned context carries the session's
// tracer and registry, and SIGINT or SIGTERM cancels it. name prefixes
// the lines Open and Close write to stderr.
func Open(name string, f Flags) (*Command, context.Context, error) {
	opts := obs.Options{
		TracePath:  f.Trace,
		FlightPath: f.Flight,
		Profiling:  obs.Profiling{CPUProfile: f.CPUProfile, MemProfile: f.MemProfile},
	}
	if f.Stats {
		opts.NDJSON = os.Stderr
	}
	if f.StatsSummary {
		opts.Summary = os.Stderr
	}
	// The server's exporters must join the session's fan-out, so it is
	// built first and attached after. A run someone is watching is a run
	// whose death should leave evidence, so serving arms the flight
	// recorder too.
	var srv *Server
	if f.Serve != "" {
		srv = New(f.Serve)
		opts.Extra = srv.Exporters()
		if opts.FlightPath == "" {
			opts.FlightPath = obs.DefaultFlightPath()
		}
	}
	sess, err := obs.NewSession(opts)
	if err != nil {
		return nil, nil, err
	}
	if srv != nil {
		srv.Attach(sess)
		if err := srv.Start(); err != nil {
			return nil, nil, errors.Join(err, sess.Close())
		}
		fmt.Fprintf(os.Stderr, "%s: live introspection on http://%s/\n", name, srv.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c := &Command{Session: sess, name: name, srv: srv, ctx: ctx, stop: stop}
	return c, sess.Context(ctx), nil
}

// Close ends the run. The command defers it directly, as
// defer cmd.Close(&err) on its named error result, so that it can
// recover a panic. When the command failed (*errp is set, a deadline
// included; the context was cancelled; or it panicked) Close first dumps
// the flight ring, with the failure as the dump's reason. Then it stops
// the live server, flushes the exporters and stops the profilers,
// keeping their error in *errp when the command had none. A panic is
// re-raised last. A run that succeeds leaves no dump.
func (c *Command) Close(errp *error) {
	r := recover()
	reason := ""
	switch {
	case r != nil:
		reason = fmt.Sprintf("panic: %v", r)
	case *errp != nil:
		reason = (*errp).Error()
	case c.ctx.Err() != nil:
		reason = c.ctx.Err().Error()
	}
	if reason != "" {
		if path, err := c.Session.DumpFlight(reason); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		} else if path != "" {
			fmt.Fprintf(os.Stderr, "%s: flight dump written to %s\n", c.name, path)
		}
	}
	c.stop()
	if c.srv != nil {
		c.srv.Close()
	}
	if err := c.Session.Close(); err != nil && *errp == nil {
		*errp = err
	}
	if r != nil {
		panic(r)
	}
}
