package obs

import (
	"context"
	"errors"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// Options configures a CLI observability Session — the one-stop wiring
// used by cmd/transit, cmd/transit-infer, and cmd/transit-bench.
type Options struct {
	// NDJSON, when non-nil, streams spans and marks as NDJSON lines to
	// this writer.
	NDJSON io.Writer
	// TracePath, when non-empty, writes a Chrome trace-event JSON file
	// there at Close (open it at https://ui.perfetto.dev).
	TracePath string
	// Summary, when non-nil, prints the end-of-run span tree and metrics
	// table to this writer at Close.
	Summary io.Writer
	// Metrics enables the metrics registry. It is forced on when Summary
	// is set (the summary reports it) or when the flight recorder is
	// enabled (the dump trailer reports it).
	Metrics bool
	// FlightPath, when non-empty, arms the flight recorder: spans and
	// marks feed a fixed-size ring, and Session.DumpFlight writes the
	// tail to this file when the run dies (panic, cancellation, SIGINT).
	// Nothing is written on a clean run.
	FlightPath string
	// FlightEvents sizes the recorder ring (0 = default 4096).
	FlightEvents int
	// Extra exporters join the tracer fan-out (the introspection server's
	// SSE broadcaster and live-gauge aggregator ride here).
	Extra []Exporter
	// Profiling configures CPU and heap profiling for the run.
	Profiling Profiling
}

// epochSetter is implemented by exporters whose timestamps must align
// with the tracer's clock (NDJSON, Chrome, the flight recorder, and the
// introspection server's broadcaster).
type epochSetter interface{ SetEpoch(t time.Time) }

// Session bundles a configured Tracer, Registry, flight Recorder, and
// profiler lifetime. A Session built from zero Options is inert: Context
// returns its argument unchanged and Close is a no-op.
type Session struct {
	Tracer   *Tracer
	Metrics  *Registry
	Recorder *Recorder

	flightPath string
	dumped     atomic.Bool
	traceFile  *os.File
	stopProf   func() error
}

// NewSession builds the observability stack described by opts. Callers
// must Close the session after the traced work (and before reading the
// trace file).
func NewSession(opts Options) (*Session, error) {
	s := &Session{}
	if opts.Metrics || opts.Summary != nil || opts.FlightPath != "" {
		s.Metrics = NewRegistry()
	}
	var exporters []Exporter
	if opts.FlightPath != "" {
		s.Recorder = NewRecorder(opts.FlightEvents)
		s.Recorder.Metrics = s.Metrics
		s.flightPath = opts.FlightPath
		// The recorder goes first: on a crash the freshest events matter
		// most, and its hot path is the cheapest of the exporters.
		exporters = append(exporters, s.Recorder)
	}
	if opts.NDJSON != nil {
		exporters = append(exporters, NewNDJSON(opts.NDJSON))
	}
	if opts.TracePath != "" {
		f, err := os.Create(opts.TracePath)
		if err != nil {
			return nil, err
		}
		s.traceFile = f
		exporters = append(exporters, NewChrome(f))
	}
	if opts.Summary != nil {
		sum := NewSummary(opts.Summary)
		sum.Metrics = s.Metrics
		exporters = append(exporters, sum)
	}
	exporters = append(exporters, opts.Extra...)
	if len(exporters) > 0 {
		s.Tracer = NewTracer(exporters...)
		// Align every exporter's clock with the tracer's.
		for _, e := range exporters {
			if es, ok := e.(epochSetter); ok {
				es.SetEpoch(s.Tracer.Epoch)
			}
		}
	}
	if opts.Profiling.enabled() {
		stop, err := opts.Profiling.Start()
		if err != nil {
			s.Close()
			return nil, err
		}
		s.stopProf = stop
	}
	return s, nil
}

// Context attaches the session's tracer and registry to ctx. With
// neither configured it returns ctx unchanged.
func (s *Session) Context(ctx context.Context) context.Context {
	if s.Tracer != nil {
		ctx = WithTracer(ctx, s.Tracer)
	}
	if s.Metrics != nil {
		ctx = WithMetrics(ctx, s.Metrics)
	}
	return ctx
}

// DumpFlight writes the flight-recorder ring to the session's configured
// flight path, once: the first caller (SIGINT handler, panic recovery,
// deadline path — they can race) wins and later calls are no-ops. It
// returns the path written, or "" when the recorder is disarmed or the
// dump already happened.
func (s *Session) DumpFlight(reason string) (string, error) {
	if s.Recorder == nil || s.flightPath == "" {
		return "", nil
	}
	if !s.dumped.CompareAndSwap(false, true) {
		return "", nil
	}
	if err := s.Recorder.DumpFile(s.flightPath, reason); err != nil {
		return "", err
	}
	return s.flightPath, nil
}

// Close flushes exporters, closes the trace file, and stops profilers.
// It is idempotent and safe on an inert session.
func (s *Session) Close() error {
	var errs []error
	if s.Tracer != nil {
		errs = append(errs, s.Tracer.Flush())
		s.Tracer = nil
	}
	if s.traceFile != nil {
		errs = append(errs, s.traceFile.Close())
		s.traceFile = nil
	}
	if s.stopProf != nil {
		errs = append(errs, s.stopProf())
		s.stopProf = nil
	}
	return errors.Join(errs...)
}
