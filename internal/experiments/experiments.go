// Package experiments drives the paper's evaluation: it prepares each
// benchmark (trace, profile, slice trees, criticality curves, baseline
// simulation), runs p-thread selection under each target, simulates the
// augmented executions, and derives every number the paper's figures and
// tables report. The per-experiment entry points in figures.go map 1:1 to
// the paper's Figure 2, Figure 3, Table 3, Figure 4 and Figure 5.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/slicer"
	"repro/internal/trace"
)

// simPool recycles simulators across runs: every timing simulation issued
// through this package (baselines, target measurements, campaign workers)
// grabs a pooled simulator, Resets it onto the new (config, trace,
// p-threads) triple and returns it afterwards, so the figure suite's
// thousands of runs reuse a handful of fully-grown simulators — ROB, state
// columns, wakeup pools, cache arrays — instead of reallocating them per
// run. Determinism is unaffected: Reset restores exactly the
// freshly-constructed state (pinned by the golden and reuse tests).
var simPool sync.Pool

// validateEngine rejects engines outside the typed enum with one error
// listing the valid set, so entry points fail fast instead of surfacing the
// simulator's rejection deep inside a prepared run.
func validateEngine(e cpu.Engine) error {
	switch e {
	case cpu.EngineEvent, cpu.EngineScan:
		return nil
	}
	return fmt.Errorf("experiments: unknown engine %q (valid engines: event, scan)", e)
}

// ValidateEngine exposes the engine-enum check to the public API layer, so
// a Lab can reject an out-of-enum engine at construction with the same
// single error every other entry point produces.
func ValidateEngine(e cpu.Engine) error { return validateEngine(e) }

// Simulate runs one timing simulation through the simulator pool and
// returns an owned (cloned) Result.
func Simulate(ctx context.Context, cfg cpu.Config, tr *trace.Trace, pthreads []*cpu.PThread) (*cpu.Result, error) {
	s, _ := simPool.Get().(*cpu.Simulator)
	if s == nil {
		s = new(cpu.Simulator)
	}
	if err := s.Reset(cfg, tr, pthreads); err != nil {
		simPool.Put(s)
		return nil, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		simPool.Put(s)
		return nil, err
	}
	// The pooled simulator owns res's memory; clone before releasing it.
	out := res.Clone()
	simPool.Put(s)
	return out, nil
}

// Config parameterizes a full experiment run.
type Config struct {
	CPU    cpu.Config
	Slicer slicer.Config

	// Problem-load mining thresholds.
	ProblemCoverage float64 // fraction of L2 misses the problem set must cover
	MinMisses       int64   // ignore loads with fewer L2 misses

	// Scale divides benchmark iteration counts indirectly by using the
	// given input class for measurement.
	MeasureInput program.InputClass
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		CPU:             cpu.DefaultConfig(),
		Slicer:          slicer.DefaultConfig(),
		ProblemCoverage: 0.9,
		MinMisses:       100,
		MeasureInput:    program.Train,
	}
}

// Prepared bundles everything selection and measurement need for one
// benchmark under one input class.
type Prepared struct {
	Name     string
	Input    program.InputClass
	Trace    *trace.Trace
	Prof     *profile.Profile
	Trees    []*slicer.Tree
	Curves   map[int32]critpath.Curve
	Baseline *cpu.Result
	Params   pthsel.Params
}

// Prepare builds, traces, profiles and baselines one benchmark by running
// the staged pipeline end to end without a store (every stage cold). The
// context is honored throughout, including mid-simulation in the baseline
// run. Engines cache the same stages individually — see Runner.Prepare.
func Prepare(ctx context.Context, name string, input program.InputClass, cfg Config) (*Prepared, error) {
	tr, err := stageTrace(name, input)
	if err != nil {
		return nil, err
	}
	p, err := PrepareTrace(ctx, name, tr, cfg)
	if err != nil {
		return nil, err
	}
	p.Input = input
	return p, nil
}

// PrepareTrace profiles and baselines an already-traced program (used for
// custom workloads supplied through the public façade). It is the uncached
// composition of the pipeline stages, so its output is identical to the
// Runner's store-backed preparation.
func PrepareTrace(ctx context.Context, name string, tr *trace.Trace, cfg Config) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := planFor(cfg, "")
	if err != nil {
		return nil, err
	}
	prof := profile.Collect(tr, plan.profileCfg)
	problems := stageProblems(prof, plan.problemsCfg)
	trees := slicer.BuildTrees(tr, prof, problems, plan.slicerCfg)
	curves, err := stageCurves(ctx, tr, prof, problems, plan.critCfg)
	if err != nil {
		return nil, err
	}
	base, err := stageBaseline(ctx, name, plan.timingCfg, tr)
	if err != nil {
		return nil, err
	}
	base = baselineFor(base, cfg.CPU.Energy)
	params := plan.deriveCfg.Derive(float64(base.Cycles), base.Energy.Total(), base.IPC(), curves)
	return assemblePrepared(name, tr, prof, trees, curves, base, params), nil
}

func critpathConfig(cfg Config) critpath.Config {
	c := critpath.DefaultConfig(cfg.CPU.Hier)
	c.Width = cfg.CPU.DispatchWidth
	c.ROBSize = cfg.CPU.ROBSize
	c.MispredPen = cfg.CPU.FrontEndDepth + cfg.CPU.RedirectPen
	return c
}

// TargetRun is one (benchmark, target) measurement with derived metrics.
type TargetRun struct {
	Target pthsel.Target
	Sel    *pthsel.Selection
	Res    *cpu.Result

	// SimSeconds is the wall-clock time the timing simulation took; with
	// Res.Cycles it yields the run's simulator throughput (a substrate
	// health metric, deliberately kept out of Res so Results stay
	// deterministic).
	SimSeconds float64

	SpeedupPct    float64 // %IPC gain
	EnergySavePct float64
	EDSavePct     float64
	ED2SavePct    float64
	FullCovPct    float64 // fully covered misses / baseline misses
	PartCovPct    float64
	PInstIncPct   float64 // p-instructions / committed main instructions
	UsefulPct     float64
	AvgPThreadLen float64
}

// SimCyclesPerSec returns the run's simulator throughput in simulated
// cycles per wall-clock second (0 when unmeasured).
func (t *TargetRun) SimCyclesPerSec() float64 {
	if t.SimSeconds <= 0 {
		return 0
	}
	return float64(t.Res.Cycles) / t.SimSeconds
}

// RunTarget selects p-threads on sel's profile and measures them on meas
// (sel == meas for ideal profiling; they differ for the realistic-profiling
// experiment). Cancellation is honored mid-simulation.
func RunTarget(ctx context.Context, sel, meas *Prepared, target pthsel.Target, cfg Config) (*TargetRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	selection := pthsel.Select(sel.Trace, sel.Prof, sel.Trees, sel.Params, target)
	start := time.Now()
	res, err := Simulate(ctx, cfg.CPU, meas.Trace, selection.PThreads)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", meas.Name, target, err)
	}
	run := Derive(selection, meas.Baseline, res)
	run.SimSeconds = time.Since(start).Seconds()
	return run, nil
}

// Derive computes the paper's reported percentages for one measured run
// against its baseline.
func Derive(selection *pthsel.Selection, base, res *cpu.Result) *TargetRun {
	t := &TargetRun{Target: selection.Target, Sel: selection, Res: res}
	bc, nc := float64(base.Cycles), float64(res.Cycles)
	be, ne := base.Energy.Total(), res.Energy.Total()
	t.SpeedupPct = metrics.SpeedupPct(bc, nc)
	t.EnergySavePct = metrics.ImprovementPct(be, ne)
	t.EDSavePct = metrics.ImprovementPct(metrics.ED(be, bc), metrics.ED(ne, nc))
	t.ED2SavePct = metrics.ImprovementPct(metrics.ED2(be, bc), metrics.ED2(ne, nc))
	if base.DemandL2Misses > 0 {
		t.FullCovPct = 100 * float64(res.FullCovered) / float64(base.DemandL2Misses)
		t.PartCovPct = 100 * float64(res.PartCovered) / float64(base.DemandL2Misses)
	}
	t.PInstIncPct = 100 * res.PInstIncrease()
	t.UsefulPct = 100 * res.Usefulness()
	t.AvgPThreadLen = selection.AvgPThreadLen()
	return t
}

// BenchResult is one benchmark's full evaluation.
type BenchResult struct {
	Name     string
	Prepared *Prepared
	Runs     map[pthsel.Target]*TargetRun
}

// RunBenchmark prepares one benchmark and evaluates the given targets with
// ideal (same-run) profiling, as in the paper's primary study.
func RunBenchmark(ctx context.Context, name string, targets []pthsel.Target, cfg Config) (*BenchResult, error) {
	prep, err := Prepare(ctx, name, cfg.MeasureInput, cfg)
	if err != nil {
		return nil, err
	}
	return measureTargets(ctx, prep, targets, cfg)
}

// measureTargets runs every target on an already-prepared benchmark.
func measureTargets(ctx context.Context, prep *Prepared, targets []pthsel.Target, cfg Config) (*BenchResult, error) {
	br := &BenchResult{Name: prep.Name, Prepared: prep, Runs: map[pthsel.Target]*TargetRun{}}
	for _, tgt := range targets {
		run, err := RunTarget(ctx, prep, prep, tgt, cfg)
		if err != nil {
			return nil, err
		}
		br.Runs[tgt] = run
	}
	return br, nil
}

// RunAll evaluates the given benchmarks × targets on a bounded worker pool
// (each benchmark independently; determinism is per-benchmark). All
// per-benchmark errors are collected and joined; results for benchmarks
// that succeeded are returned alongside the joined error.
func RunAll(ctx context.Context, names []string, targets []pthsel.Target, cfg Config) ([]*BenchResult, error) {
	return NewRunner(cfg, 0, nil).benchResults(ctx, names, targets, cfg)
}
