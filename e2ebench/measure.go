package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least setupRepeats times and for at
// least setupSpan; setup_s is the median, so neither one cold repetition
// nor the timer's resolution on a millisecond set-up decides it.
const (
	setupRepeats = 3
	setupSpan    = time.Second
)

// setupWorkload builds the workload's ops and runs the first of them once
// as a warm-up, repeating both as the constants above ask; it returns the
// last set of ops and the median set-up time over the host index of the
// set-up phase. The warm-up lets lazy state settle before the timed
// phase; any work moved into set-up shows in setup_s.
func setupWorkload(ctx context.Context, w workload, k *hostKernel) ([]op, float64, error) {
	var ops []op
	var times []float64
	host := k.meter()
	for start := time.Now(); len(times) < setupRepeats || time.Since(start) < setupSpan; {
		runtime.GC()
		host.before()
		t0 := time.Now()
		var err error
		if ops, err = w.setup(ctx); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if _, _, err := runOp(ctx, ops[0]); err != nil {
			return nil, 0, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		d := time.Since(t0)
		host.after(d)
		times = append(times, d.Seconds())
	}
	return ops, median(times) / host.index(), nil
}

// runOp runs one op, timing its calls alone, and then its oracle.
func runOp(ctx context.Context, o op) (time.Duration, opStats, error) {
	t0 := time.Now()
	oracle, st, err := o.run(ctx)
	d := time.Since(t0)
	if err == nil {
		err = oracle()
	}
	if err != nil {
		return d, st, fmt.Errorf("%s: %w", o.name, err)
	}
	return d, st, nil
}

// timedResult is what the untraced timed phase measured.
type timedResult struct {
	attempted, failed, passes int
	// byOp holds every latency in seconds by op name; passRSSMB each
	// whole pass's peak resident set size, less the host kernel's table.
	byOp      map[string][]float64
	passRSSMB []float64
	// hostIndex is the phase's host index (see hostMeter).
	hostIndex float64
	// rowStates and rowCheck sum opStats.states and opStats.check per op.
	rowStates map[string]int
	rowCheck  map[string]time.Duration
	allocMB   float64
	gcCycles  uint32
}

// runTimed is the closed loop: passes over every op once in a seeded
// order, until budget has elapsed after at least one whole pass. It stops
// between ops, not at a pass boundary, so a pass of long ops does not
// overrun the budget. Each op starts on a collected heap, as it would in
// a fresh process, after the host kernel.
func runTimed(ctx context.Context, ops []op, seed int64, budget time.Duration, k *hostKernel) (timedResult, error) {
	res := timedResult{byOp: map[string][]float64{},
		rowStates: map[string]int{}, rowCheck: map[string]time.Duration{}}
	rng := rand.New(rand.NewSource(seed))
	host := k.meter()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
passes:
	for {
		if err := resetPeakRSS(); err != nil {
			return res, err
		}
		for _, i := range rng.Perm(len(ops)) {
			if res.passes > 0 && time.Since(start) >= budget {
				break passes
			}
			o := ops[i]
			runtime.GC()
			host.before()
			d, st, err := runOp(ctx, o)
			host.after(d)
			res.attempted++
			if err != nil {
				res.failed++
				fmt.Fprintln(os.Stderr, "e2ebench: failed:", err)
				continue
			}
			res.byOp[o.name] = append(res.byOp[o.name], d.Seconds())
			res.rowStates[o.name] += st.states
			res.rowCheck[o.name] += st.check
		}
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		res.passRSSMB = append(res.passRSSMB, rss-kernelTableBytes/(1<<20))
		res.passes++
	}
	runtime.ReadMemStats(&m1)
	res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	// The collections before each op are the harness's, not the program's.
	res.gcCycles = (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	res.hostIndex = host.index()
	return res, nil
}

// resetPeakRSS restarts the process's resident-set high-water mark
// (VmHWM) at its current size, so that the next read covers only what
// runs in between. How far the heap overshoots its live data depends on
// when the concurrent GC happens to run, so one high-water mark over a
// whole run varies by 10-15% from run to run; the median over passes
// varied by a few percent.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set size: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// mean is the average of xs, or 0 for none.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
