// Command benchgate runs the simulator benchmark suite, writes the measured
// numbers to BENCH_sim.json (the CI artifact), and gates the build against a
// committed baseline:
//
//   - the event-engine hot-loop throughput (sim-cycles/s) must not regress
//     more than -tolerance (default 15%) below the baseline file,
//   - the event/scan engine speedup must stay at or above the baseline's
//     MinSpeedup (the PR 2 tentpole's machine-independent >= 1.5x
//     requirement), and
//   - the event engine's steady-state allocation rate must not exceed the
//     baseline's MaxEventAllocsPerOp / MaxEventBytesPerOp (0 since the
//     zero-allocation run-reuse tentpole: one Reset+run over the full suite
//     allocates nothing), and
//   - a warm 3-point sweep grid must not perform more heavy stage builds
//     (trace/profile/slice-tree executions) than the baseline's
//     MaxWarmGridStageBuilds (0 since the staged-pipeline tentpole: warm
//     sweep points reuse every cached upstream artifact), and
//   - the mapped trace-spill load (BenchmarkTraceSpill, v2 heap decode and
//     mapped open+verify of the same file interleaved per iteration so
//     drift cancels) must stay at or above the baseline's MinSpillMapGain
//     over the v2 heap decode (machine-independent; >= 5x), and
//   - the mapped side's heap allocation per pass over the paper suite must
//     not exceed the baseline's MaxSpillMapBytesPerOp (machine-independent
//     and exact: the heap saving that justifies mapping traces at all).
//
// Usage:
//
//	go run ./cmd/benchgate                 # measure + gate against testdata/bench_baseline.json
//	go run ./cmd/benchgate -update         # refresh the baseline from this machine
//
// The refresh procedure is documented in EXPERIMENTS.md: -update records
// this machine's measured throughput verbatim (and the measured allocation
// columns, which are machine-independent); when refreshing the committed
// baseline for heterogeneous CI runners, scale EventCyclesPerSec down (the
// repo commits ~50% of a reference run) so the 15% gate trips on real
// regressions rather than on runner lottery.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Report is the BENCH_sim.json artifact schema.
type Report struct {
	EventCyclesPerSec float64 // BenchmarkSimHotLoop/event sim-cycles/s
	ScanCyclesPerSec  float64 // BenchmarkSimHotLoop/scan sim-cycles/s
	Speedup           float64 // event / scan
	EventAllocsPerOp  float64 // steady-state allocations per full-suite op (event engine)
	EventBytesPerOp   float64 // steady-state bytes allocated per full-suite op

	// Trace spill columns (BenchmarkTraceSpill): seconds per warm load of
	// the full paper suite's spilled traces through the v2 heap path (read +
	// chunk verify + column copies) vs the zero-copy mapped path (mmap +
	// chunk verify) over the same files. The two sides run back to back per
	// iteration, so the gated SpillMapGain ratio (load / map) is robust to
	// machine drift. TraceSpillMapBytes is the gated heap allocation of one
	// mapped pass.
	TraceSpillLoadSec  float64
	TraceSpillMapSec   float64
	TraceSpillMapBytes float64
	SpillMapGain       float64

	// Sweep grid columns (BenchmarkSweepGrid): seconds per 3-point
	// single-axis sweep, cold (fresh engine) vs warm (every stage
	// artifact cached), plus the heavy stage executions (trace + profile
	// + slice builds) each performs. Warm builds are the gated column:
	// the staged pipeline guarantees 0.
	SweepColdSec        float64
	SweepWarmSec        float64
	ColdGridStageBuilds float64
	WarmGridStageBuilds float64
}

// Baseline is the committed gate (testdata/bench_baseline.json).
type Baseline struct {
	// EventCyclesPerSec is the throughput floor reference; the gate fails
	// when the measured value drops more than the tolerance below it.
	EventCyclesPerSec float64
	// MinSpeedup is the required event/scan ratio (machine-independent).
	MinSpeedup float64
	// MaxEventAllocsPerOp and MaxEventBytesPerOp cap the event engine's
	// steady-state allocation rate (machine-independent; 0 = the hot loop
	// must be allocation-free under simulator reuse).
	MaxEventAllocsPerOp float64
	MaxEventBytesPerOp  float64
	// MaxWarmGridStageBuilds caps the heavy stage executions (trace +
	// profile + slice builds) a warm 3-point sweep grid may perform
	// (machine-independent; 0 = warm sweep points must reuse every cached
	// upstream artifact — the staged-pipeline contract).
	MaxWarmGridStageBuilds float64
	// MinSpillMapGain is the required paired v2-heap-decode/mapped-open
	// ratio for warm trace spill loads (machine-independent; the zero-copy
	// mapped path must load the paper suite's traces at least this much
	// faster than the v2 heap decode of the same files).
	MinSpillMapGain float64
	// MaxSpillMapBytesPerOp caps the heap bytes one mapped load of the paper
	// suite's traces allocates (machine-independent and exact; the heap
	// decode of the same files allocates ~115 MB).
	MaxSpillMapBytesPerOp float64
	Note                  string `json:",omitempty"`
}

// spillMapBytesCap is the MaxSpillMapBytesPerOp that -update commits:
// 256 KiB, about 7x the 27-37 KB a mapped pass allocates at GOMAXPROCS 1-4
// (its only variable part is the verify workers, bounded by the chunk
// count), and over 400x below the heap decode.
const spillMapBytesCap = 256 << 10

func main() {
	baselinePath := flag.String("baseline", "testdata/bench_baseline.json", "committed baseline file")
	outPath := flag.String("out", "BENCH_sim.json", "where to write the measured report")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional throughput regression")
	benchtime := flag.String("benchtime", "5x", "go test -benchtime for the hot loop")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	flag.Parse()

	rep := Report{}
	// The ratio-gated event/scan columns are measured -count 3 and
	// aggregated best-of per column: on shared runners a single sample of
	// either side can swing ±20% from CPU steal, which would trip (or mask)
	// a ratio gate; the best observed throughput of each column is the
	// standard noise-resistant estimator.
	hot, err := runBench("BenchmarkSimHotLoop", *benchtime, 3)
	if err != nil {
		fatal("hot loop benchmark: %v", err)
	}
	event := hot["BenchmarkSimHotLoop/event"]
	rep.EventCyclesPerSec = event.metric
	rep.ScanCyclesPerSec = hot["BenchmarkSimHotLoop/scan"].metric
	if rep.EventCyclesPerSec <= 0 || rep.ScanCyclesPerSec <= 0 {
		fatal("missing sim-cycles/s metrics in benchmark output")
	}
	rep.Speedup = rep.EventCyclesPerSec / rep.ScanCyclesPerSec
	rep.EventAllocsPerOp = event.allocsPerOp
	rep.EventBytesPerOp = event.bytesPerOp

	grid, err := runBench("BenchmarkSweepGrid", "1x", 1)
	if err != nil {
		fatal("sweep grid benchmark: %v", err)
	}
	cold, warm := grid["BenchmarkSweepGrid/cold"], grid["BenchmarkSweepGrid/warm"]
	rep.SweepColdSec = cold.nsPerOp / 1e9
	rep.SweepWarmSec = warm.nsPerOp / 1e9
	rep.ColdGridStageBuilds = cold.gridStageBuilds
	rep.WarmGridStageBuilds = warm.gridStageBuilds
	if rep.ColdGridStageBuilds <= 0 {
		fatal("missing grid-stage-builds metric in sweep grid benchmark output")
	}
	// The warm sub-benchmark is the gated one, and its expected metric is 0,
	// so "missing from the output" must not masquerade as a pass.
	if rep.SweepWarmSec <= 0 {
		fatal("missing warm sweep grid benchmark output (BenchmarkSweepGrid/warm)")
	}

	// The spill comparison pairs its two sides per iteration, so the gain
	// ratio is robust to drift; best-of over repeats, because a single
	// sample's ratio carries per-run noise the pairing cannot cancel.
	spill, err := runBench("BenchmarkTraceSpill", "10x", 3)
	if err != nil {
		fatal("trace spill benchmark: %v", err)
	}
	sp := spill["BenchmarkTraceSpill"]
	rep.TraceSpillLoadSec = sp.spillLoadSec
	rep.TraceSpillMapSec = sp.spillMapSec
	rep.TraceSpillMapBytes = sp.spillMapBytes
	rep.SpillMapGain = sp.spillMapGain
	if rep.SpillMapGain <= 0 {
		fatal("missing spill-map-gain metric in trace spill benchmark output")
	}
	// A mapped load always allocates its Trace header, so 0 means the
	// gated metric is missing, not that the cap passed.
	if rep.TraceSpillMapBytes <= 0 {
		fatal("missing trace-spill-map-bytes metric in trace spill benchmark output")
	}

	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
		fatal("write %s: %v", *outPath, err)
	}
	fmt.Printf("benchgate: event %.0f sim-cycles/s (%.0f allocs/op, %.0f B/op), scan %.0f sim-cycles/s, speedup %.2fx\n",
		rep.EventCyclesPerSec, rep.EventAllocsPerOp, rep.EventBytesPerOp, rep.ScanCyclesPerSec, rep.Speedup)
	fmt.Printf("benchgate: sweep grid cold %.2fs (%.0f stage builds), warm %.2fs (%.0f stage builds)\n",
		rep.SweepColdSec, rep.ColdGridStageBuilds, rep.SweepWarmSec, rep.WarmGridStageBuilds)
	fmt.Printf("benchgate: trace spill v2 heap decode %.4fs, mapped open %.4fs (%.0f B), paired gain %.2fx\n",
		rep.TraceSpillLoadSec, rep.TraceSpillMapSec, rep.TraceSpillMapBytes, rep.SpillMapGain)

	if *update {
		b := Baseline{
			EventCyclesPerSec:      rep.EventCyclesPerSec,
			MinSpeedup:             1.5,
			MaxEventAllocsPerOp:    rep.EventAllocsPerOp,
			MaxEventBytesPerOp:     rep.EventBytesPerOp,
			MaxWarmGridStageBuilds: rep.WarmGridStageBuilds,
			MinSpillMapGain:        5.0,
			MaxSpillMapBytesPerOp:  spillMapBytesCap,
			Note:                   "measured by cmd/benchgate -update; scale EventCyclesPerSec down for heterogeneous CI runners (see EXPERIMENTS.md)",
		}
		braw, _ := json.MarshalIndent(b, "", "  ")
		braw = append(braw, '\n')
		if err := os.WriteFile(*baselinePath, braw, 0o644); err != nil {
			fatal("write %s: %v", *baselinePath, err)
		}
		fmt.Printf("benchgate: baseline refreshed at %s\n", *baselinePath)
		return
	}

	braw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("read baseline: %v (run with -update to create one)", err)
	}
	var base Baseline
	if err := json.Unmarshal(braw, &base); err != nil {
		fatal("parse baseline: %v", err)
	}
	floor := base.EventCyclesPerSec * (1 - *tolerance)
	if rep.EventCyclesPerSec < floor {
		fatal("throughput regression: event engine %.0f sim-cycles/s < floor %.0f (baseline %.0f - %.0f%%)",
			rep.EventCyclesPerSec, floor, base.EventCyclesPerSec, *tolerance*100)
	}
	if base.MinSpeedup > 0 && rep.Speedup < base.MinSpeedup {
		fatal("speedup regression: event/scan %.2fx < required %.2fx", rep.Speedup, base.MinSpeedup)
	}
	// Allocation gates are exact, not tolerance-scaled: the baseline commits
	// 0, and any steady-state allocation in the reused hot loop is a
	// regression of the zero-allocation contract.
	if rep.EventAllocsPerOp > base.MaxEventAllocsPerOp {
		fatal("allocation regression: event engine %.0f allocs/op > allowed %.0f (steady-state sim reuse must not allocate)",
			rep.EventAllocsPerOp, base.MaxEventAllocsPerOp)
	}
	if rep.EventBytesPerOp > base.MaxEventBytesPerOp {
		fatal("allocation regression: event engine %.0f B/op > allowed %.0f",
			rep.EventBytesPerOp, base.MaxEventBytesPerOp)
	}
	// The warm-grid gate is exact, like the allocation gates: a warm sweep
	// point re-running tracing, profiling or slicing breaks the staged
	// pipeline's reuse contract regardless of how fast the machine is.
	if rep.WarmGridStageBuilds > base.MaxWarmGridStageBuilds {
		fatal("stage-reuse regression: warm sweep grid performed %.0f heavy stage builds > allowed %.0f (warm points must reuse cached trace/profile/slices)",
			rep.WarmGridStageBuilds, base.MaxWarmGridStageBuilds)
	}
	if base.MinSpillMapGain > 0 && rep.SpillMapGain < base.MinSpillMapGain {
		fatal("spill regression: paired mapped trace-load gain %.2fx < required %.2fx (the zero-copy mapped path must beat the v2 heap decode)",
			rep.SpillMapGain, base.MinSpillMapGain)
	}
	// Exact like the other allocation gates: the mapped path exists to keep
	// traces off the heap, whatever the machine's speed.
	if rep.TraceSpillMapBytes > base.MaxSpillMapBytesPerOp {
		fatal("spill allocation regression: a mapped trace-load pass allocated %.0f B > allowed %.0f (mapped traces must stay off the heap)",
			rep.TraceSpillMapBytes, base.MaxSpillMapBytesPerOp)
	}
	fmt.Printf("benchgate: PASS (floor %.0f sim-cycles/s, min speedup %.2fx, max %.0f allocs/op, max %.0f warm grid stage builds, min spill map gain %.2fx, max spill map %.0f B)\n",
		floor, base.MinSpeedup, base.MaxEventAllocsPerOp, base.MaxWarmGridStageBuilds, base.MinSpillMapGain, base.MaxSpillMapBytesPerOp)
}

type benchLine struct {
	nsPerOp         float64
	metric          float64 // the benchmark's custom sim-cycles/s metric, if reported
	gridStageBuilds float64 // BenchmarkSweepGrid's grid-stage-builds metric
	spillLoadSec    float64 // BenchmarkTraceSpill's trace-spill-load-sec metric
	spillMapSec     float64 // BenchmarkTraceSpill's trace-spill-map-sec metric
	spillMapBytes   float64 // BenchmarkTraceSpill's trace-spill-map-bytes metric
	spillMapGain    float64 // BenchmarkTraceSpill's paired spill-map-gain ratio
	bytesPerOp      float64 // -benchmem B/op
	allocsPerOp     float64 // -benchmem allocs/op
}

// runBench executes one `go test -bench` selection and parses its result
// lines into name -> {ns/op, sim-cycles/s, B/op, allocs/op}. With count >
// 1, repeated lines per benchmark are folded best-of for the speed columns
// (max throughput, min ns/op) and worst-of for the gated allocation and
// stage-build columns (spill map bytes included).
func runBench(pattern, benchtime string, count int) (map[string]benchLine, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+pattern+"$",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	res := map[string]benchLine{}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// "BenchmarkName/sub-8  N  123 ns/op  456 sim-cycles/s  0 B/op  0 allocs/op"
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
		var bl benchLine
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				bl.nsPerOp = v
			case "sim-cycles/s":
				bl.metric = v
			case "grid-stage-builds":
				bl.gridStageBuilds = v
			case "trace-spill-load-sec":
				bl.spillLoadSec = v
			case "trace-spill-map-sec":
				bl.spillMapSec = v
			case "trace-spill-map-bytes":
				bl.spillMapBytes = v
			case "spill-map-gain":
				bl.spillMapGain = v
			case "B/op":
				bl.bytesPerOp = v
			case "allocs/op":
				bl.allocsPerOp = v
			}
		}
		if prev, ok := res[name]; ok {
			bl.metric = max(bl.metric, prev.metric)
			bl.nsPerOp = min(bl.nsPerOp, prev.nsPerOp)
			bl.allocsPerOp = max(bl.allocsPerOp, prev.allocsPerOp)
			bl.bytesPerOp = max(bl.bytesPerOp, prev.bytesPerOp)
			bl.gridStageBuilds = max(bl.gridStageBuilds, prev.gridStageBuilds)
			bl.spillLoadSec = min(bl.spillLoadSec, prev.spillLoadSec)
			bl.spillMapSec = min(bl.spillMapSec, prev.spillMapSec)
			bl.spillMapBytes = max(bl.spillMapBytes, prev.spillMapBytes)
			bl.spillMapGain = max(bl.spillMapGain, prev.spillMapGain)
		}
		res[name] = bl
	}
	return res, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
