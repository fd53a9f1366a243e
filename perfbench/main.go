// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the reproduction the way its users do — the paper's figure
// suite through one preexec.Lab, and sweep jobs through an in-process labd
// daemon over HTTP — and prints every metric by name and unit, followed by
// one JSON result line.
//
//	go run . --workload paper-suite --seed 1 --seconds 8 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's own tracing on (event observer, stream
// spans, store counters, direct calls into each layer) and prints the
// per-layer metrics instead. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workers is the worker-pool size and closed-loop client count of every
// workload: two, or fewer on a smaller machine.
var workers = min(2, runtime.NumCPU())

// runDeadline bounds one run, so a hung daemon or a pathological slowdown
// fails the run instead of outliving its caller's budget.
const runDeadline = 170 * time.Second

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome: the metrics of the requested kind, the
// operation counts behind error_rate, and human-readable notes.
type result struct {
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
	notes     []string
}

func (r *result) addE2E(name, unit string, v float64) {
	r.e2e = append(r.e2e, metric{name, unit, v})
}

func (r *result) addLayer(name, unit string, v float64) {
	r.layer = append(r.layer, metric{name, unit, v})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed or wrong operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // this run's private scratch directory
	refs    references
}

type workload func(ctx context.Context, o options) (*result, error)

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"paper-suite", "daemon-repeat", "daemon-novel"}

var workloads = map[string]workload{
	"paper-suite":   runPaperSuite,
	"daemon-repeat": runDaemonRepeat,
	"daemon-novel":  runDaemonNovel,
}

func main() {
	name := flag.String("workload", "paper-suite", "workload: paper-suite, daemon-repeat, daemon-novel, or all of them in turn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 8, "measurement time of the closed-loop phases")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	writeRefs := flag.String("write-refs", "", "recompute the reference digests into this file and exit")
	flag.Parse()

	if *writeRefs != "" {
		if err := writeReferences(*writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		run, ok := workloads[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
		if err := runOne(n, run, options{seed: *seed, seconds: *seconds, traced: *traced == 1}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

func runOne(name string, run workload, o options) error {
	var err error
	if o.refs, err = loadReferences(); err != nil {
		return err
	}
	// Every run works in its own fresh directory under the build directory
	// and removes it afterwards, so stores start cold and the scheduler's
	// persisted cost model never carries over between runs.
	runs := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return fmt.Errorf("run directory: %w", err)
	}
	o.dir, err = os.MkdirTemp(runs, name+"-")
	if err != nil {
		return fmt.Errorf("run directory: %w", err)
	}
	defer func() {
		os.RemoveAll(o.dir)
		// Let the file system finish the deletion before exiting, so a
		// following run does not pay for it inside its timed phases.
		syscall.Sync()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := run(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return printResult(name, o, res)
}

func printResult(name string, o options, res *result) error {
	for _, n := range res.notes {
		fmt.Printf("%s: %s\n", name, n)
	}
	ms := res.e2e
	if o.traced {
		ms = res.layer
	}
	out := map[string]any{}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is not a number", name, m.name)
		}
		fmt.Printf("%s: %-32s %16.6f %s\n", name, m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	errRate := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("%s: %-32s %16.6f %s (%d failed of %d attempted)\n",
		name, "error_rate", errRate, "ratio", res.failed, res.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
