package obs

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Profiling configures the Go runtime profilers for a CLI run. The zero
// value disables everything.
type Profiling struct {
	// CPUProfile, when non-empty, streams a CPU profile to this file for
	// the duration of the run.
	CPUProfile string
	// MemProfile, when non-empty, writes a heap profile to this file at
	// stop time (after a forced GC, so it reflects live objects).
	MemProfile string
}

func (p Profiling) enabled() bool {
	return p.CPUProfile != "" || p.MemProfile != ""
}

// NewPprofMux builds a private ServeMux carrying the /debug/pprof/
// endpoints. Every call returns an independent mux, and nothing is ever
// registered on http.DefaultServeMux: two concurrent runs in one process
// (the engine tests do this) each get their own listener and mux, and no
// stray package import can silently add handlers to ours. The handlers
// are implemented directly over runtime/pprof and runtime/trace rather
// than net/http/pprof, whose import would itself mutate DefaultServeMux.
func NewPprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprofHandler)
	return mux
}

// pprofHandler dispatches /debug/pprof/<name> like net/http/pprof does:
// an index at the root, the CPU profile and execution trace as timed
// captures, cmdline as plain text, and every runtime/pprof named profile
// (heap, goroutine, allocs, block, mutex, threadcreate) by lookup.
func pprofHandler(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/")
	switch name {
	case "":
		profiles := pprof.Profiles()
		names := make([]string, 0, len(profiles))
		for _, p := range profiles {
			names = append(names, fmt.Sprintf("%s (%d)", p.Name(), p.Count()))
		}
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "transit pprof\n\nprofiles:\n")
		for _, n := range names {
			fmt.Fprintf(w, "  %s\n", n)
		}
		fmt.Fprintf(w, "  profile?seconds=N (CPU)\n  trace?seconds=N (execution trace)\n  cmdline\n")
	case "cmdline":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, strings.Join(os.Args, "\x00"))
	case "profile":
		sec := durationSeconds(r, 30)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="profile"`)
		if err := pprof.StartCPUProfile(w); err != nil {
			// Another CPU profile (e.g. -cpuprofile) is already running.
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		sleepCtx(r, sec)
		pprof.StopCPUProfile()
	case "trace":
		sec := durationSeconds(r, 1)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="trace"`)
		if err := trace.Start(w); err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		sleepCtx(r, sec)
		trace.Stop()
	default:
		p := pprof.Lookup(name)
		if p == nil {
			http.NotFound(w, r)
			return
		}
		debug, _ := strconv.Atoi(r.URL.Query().Get("debug"))
		if debug > 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		_ = p.WriteTo(w, debug)
	}
}

func durationSeconds(r *http.Request, def float64) time.Duration {
	if s := r.URL.Query().Get("seconds"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			def = v
		}
	}
	return time.Duration(def * float64(time.Second))
}

// sleepCtx waits for d or for the client to give up, whichever is first.
func sleepCtx(r *http.Request, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}

// Start begins the configured profilers and returns a stop function that
// finalizes them (stops the CPU profile, writes the heap profile). The
// stop function must be called exactly once; with nothing configured it
// is a cheap no-op.
func (p Profiling) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPUProfile != "" {
		cpuFile, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	memPath := p.MemProfile
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("obs: heap profile: %w", err)
			}
			runtime.GC() // materialize up-to-date allocation statistics
			werr := pprof.WriteHeapProfile(f)
			cerr := f.Close()
			if werr != nil {
				return fmt.Errorf("obs: heap profile: %w", werr)
			}
			return cerr
		}
		return nil
	}, nil
}
