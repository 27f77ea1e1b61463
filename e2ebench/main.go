// Command e2ebench is the end-to-end benchmark of the transit pipeline:
// the paper's Table 3 inference rows, its Table 5 case studies and the
// model checking behind Table 4, each run as a closed loop through the
// public entry points with the transit CLI defaults and a one-worker
// model checker.
//
// One workload per process:
//
//	e2ebench -workload infer|casestudy|check [-seed N] [-seconds S] [-trace 0|1]
//
// prints every metric as "workload metric value unit", then one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. It exits 1 if any
// op errs or gives a wrong answer.
//
// With no -workload it runs every workload three times, each in a fresh
// process, plus one traced run, and writes the per-workload medians to
// the -out artifact (BENCH_e2e.json) under the shared bench header.
//
// The seed only shuffles op order within each pass; the inputs are the
// paper's and fixed. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"transit/internal/bench"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 30

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: infer, casestudy or check (empty: all of them, one process each)")
	seed := flag.Int64("seed", 1, "seed for the op order within each pass")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced phase instead of the end-to-end metrics")
	out := flag.String("out", "", "with no -workload: write the BENCH_e2e.json artifact to this file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadNamed(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload sets w up, runs its timed phase and, when traced, its
// traced phase and the efsm probe, printing each metric.
func runWorkload(ctx context.Context, w workload, seed int64, budget time.Duration, traced bool) (result, error) {
	k, err := newHostKernel()
	if err != nil {
		return result{}, err
	}
	ops, setupS, err := setupWorkload(ctx, w, k)
	if err != nil {
		return result{}, err
	}
	t, err := runTimed(ctx, ops, seed, budget, k)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	fmt.Printf("%s samples %d ops, %d whole passes, host index %.4f\n", w.name, t.attempted, t.passes, t.hostIndex)
	ms := endToEnd(setupS, t)
	if traced {
		tr := runTraced(ctx, ops, seed, t.byOp)
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		var pr probeResult
		for _, o := range ops {
			if o.probe != nil {
				if err := o.probe(&pr); err != nil {
					return result{}, fmt.Errorf("%s probe: %w", o.name, err)
				}
			}
		}
		ms = perLayer(t, tr, pr)
		fmt.Printf("%s reconciliation: layer self times + unattributed = %.6f s of %.6f s traced wall\n",
			w.name, reconciled(tr).Seconds(), tr.wall.Seconds())
	}
	for _, m := range ms {
		fmt.Printf("%s %s %.6g %s\n", w.name, m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runAll runs every workload in a fresh process of this binary, three
// times untraced and once traced, and writes the artifact. A workload's
// row holds the median of each end-to-end metric over the runs as a
// top-level leaf (so `transit obs bench-diff` compares the _ms ones),
// every run's value, and the traced run's per-layer metrics.
func runAll(seed int64, seconds int, out string) error {
	const runs = 3
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rows []map[string]any
	for _, w := range workloads {
		row := map[string]any{"name": w.name}
		values := map[string][]float64{}
		attempted, failed := 0, 0
		for i := 0; i <= runs; i++ {
			traced := i == runs
			res, err := runChild(self, w.name, seed, seconds, traced)
			if err != nil {
				return err
			}
			attempted += res.Attempted
			failed += res.Failed
			if traced {
				layer := map[string]float64{}
				for k, v := range res.Metrics {
					layer[k] = v.Value
				}
				row["per_layer"] = layer
				continue
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		for k, vs := range values {
			row[k] = median(vs)
		}
		row["values"] = values
		row["attempted"], row["failed"] = attempted, failed
		rows = append(rows, row)
		if failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", w.name, failed, attempted)
		}
	}
	if out == "" {
		return nil
	}
	body := map[string]any{"seed": seed, "seconds": seconds, "runs": runs, "workloads": rows}
	if err := bench.WriteArtifact(out, bench.NewHeader("e2e", 0), body); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runChild runs one workload in a child process, echoing its metric lines.
func runChild(self, name string, seed int64, seconds int, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", l)
	}
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return res, fmt.Errorf("%s: no result (%v): %w", name, err, jerr)
	}
	return res, nil
}
