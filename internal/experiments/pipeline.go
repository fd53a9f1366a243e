package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/critpath"
	"repro/internal/energy"
	"repro/internal/fingerprint"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/slicer"
	"repro/internal/trace"
)

// Stage identifies one stage of the preparation pipeline — the small DAG
//
//	trace ──► profile ──► problems ──┬─► slices
//	  │                              └─► curves ──┐
//	  └────────────────► baseline ────────────────┴─► params
//
// Every stage artifact is cached under a content fingerprint derived from
// exactly the configuration fields the stage reads (chained through its
// upstream artifacts' fingerprints), so a sweep point that mutates one knob
// rebuilds only the stages that actually depend on it:
//
//	trace    — (benchmark, input) alone; no configuration
//	profile  — profile.Config (L1D/L2 geometry, stride prefetcher)
//	problems — ProblemCoverage, MinMisses
//	slices   — slicer.Config
//	curves   — critpath.Config (core shape + hierarchy latencies)
//	baseline — cpu.Config with the energy parameters zeroed (simulation
//	           timing is independent of them; energy is recomputed from the
//	           cached event counts per requesting configuration)
//	params   — pthsel.DeriveConfig (latencies + energy model + floors)
//	prepared — the assembled whole-config view (cheap; kept so repeated
//	           figures over one configuration share a single assembly)
type Stage string

// Pipeline stages, in dependency order.
const (
	StageTrace    Stage = "trace"
	StageProfile  Stage = "profile"
	StageProblems Stage = "problems"
	StageSlices   Stage = "slices"
	StageCurves   Stage = "curves"
	StageBaseline Stage = "baseline"
	StageParams   Stage = "params"
	StagePrepared Stage = "prepared"
)

// Stages lists every pipeline stage in dependency order (StagePrepared
// last: the assembled whole-config view behind StagePrepares).
func Stages() []Stage {
	return []Stage{StageTrace, StageProfile, StageProblems, StageSlices,
		StageCurves, StageBaseline, StageParams, StagePrepared}
}

// stageDeps maps each pipeline stage to its direct upstream stages — the
// edge set of the stage DAG drawn above, which the DAG export (SweepDAG)
// expands into per-workload dependency nodes. Iterating Stages() guarantees
// every stage's deps precede it.
var stageDeps = map[Stage][]Stage{
	StageTrace:    nil,
	StageProfile:  {StageTrace},
	StageProblems: {StageProfile},
	StageSlices:   {StageTrace, StageProfile, StageProblems},
	StageCurves:   {StageTrace, StageProfile, StageProblems},
	StageBaseline: {StageTrace},
	StageParams:   {StageBaseline, StageCurves},
	StagePrepared: {StageTrace, StageProfile, StageProblems, StageSlices,
		StageCurves, StageBaseline, StageParams},
}

// problemsConfig is the configuration of the problem-load mining stage.
type problemsConfig struct {
	Coverage  float64
	MinMisses int64
}

// stagePlan is one experiment Config projected onto the pipeline: each
// stage's own config struct plus its chained content fingerprint.
type stagePlan struct {
	profileCfg  profile.Config
	problemsCfg problemsConfig
	slicerCfg   slicer.Config
	critCfg     critpath.Config
	timingCfg   cpu.Config
	deriveCfg   pthsel.DeriveConfig

	fps map[Stage]string
}

// timingConfig strips the processor configuration down to the fields that
// influence simulated behaviour: the energy parameters are accounting-only
// (they are read exactly once, after the last cycle, to convert event counts
// into energy), so baselines are keyed — and simulated — without them.
func timingConfig(c cpu.Config) cpu.Config {
	c.Energy = energy.Params{}
	return c
}

// deriveConfig projects an experiment Config onto the params-derivation
// stage's inputs.
func deriveConfig(cfg Config) pthsel.DeriveConfig {
	h := cfg.CPU.Hier
	return pthsel.DeriveConfig{
		BWSEQproc: float64(cfg.CPU.FetchWidth),
		MissLat:   float64(h.MemLatency),
		LatL1:     float64(h.L1D.HitLatency),
		LatL2:     float64(h.L1D.HitLatency + h.L2.HitLatency),
		LatMem:    float64(h.L1D.HitLatency + h.L2.HitLatency + h.MemLatency),
		Energy:    cfg.CPU.Energy,
		MinDCptcm: 16,
	}
}

// planFor computes the per-stage configs and content fingerprints of one
// experiment configuration. workloadFP is the content fingerprint of the
// workload itself — empty for the built-in corpus, whose (benchmark, input)
// pair alone identifies the trace, and the generated-spec fingerprint for
// registered generator workloads, so a respun spec under a reused name can
// never alias a cached stage. A configuration that cannot be fingerprinted
// (e.g. a sweep mutation smuggling in a NaN) is reported as an error instead
// of panicking from inside the artifact store.
func planFor(cfg Config, workloadFP string) (stagePlan, error) {
	if err := validateEngine(cfg.CPU.Engine); err != nil {
		return stagePlan{}, err
	}
	p := stagePlan{
		profileCfg:  profile.ConfigFromHier(cfg.CPU.Hier),
		problemsCfg: problemsConfig{Coverage: cfg.ProblemCoverage, MinMisses: cfg.MinMisses},
		slicerCfg:   cfg.Slicer,
		critCfg:     critpathConfig(cfg),
		timingCfg:   timingConfig(cfg.CPU),
		deriveCfg:   deriveConfig(cfg),
	}
	profileFP, err := p.profileCfg.Fingerprint()
	if err != nil {
		return stagePlan{}, fmt.Errorf("%s stage: %w", StageProfile, err)
	}
	problemsFP, err := fingerprint.JSON(p.problemsCfg)
	if err != nil {
		return stagePlan{}, fmt.Errorf("%s stage: %w", StageProblems, err)
	}
	slicerFP, err := p.slicerCfg.Fingerprint()
	if err != nil {
		return stagePlan{}, fmt.Errorf("%s stage: %w", StageSlices, err)
	}
	critFP, err := p.critCfg.Fingerprint()
	if err != nil {
		return stagePlan{}, fmt.Errorf("%s stage: %w", StageCurves, err)
	}
	timingFP, err := fingerprint.JSON(p.timingCfg)
	if err != nil {
		return stagePlan{}, fmt.Errorf("%s stage: %w", StageBaseline, err)
	}
	deriveFP, err := p.deriveCfg.Fingerprint()
	if err != nil {
		return stagePlan{}, fmt.Errorf("%s stage: %w", StageParams, err)
	}
	preparedFP, err := preparedFingerprint(cfg, workloadFP)
	if err != nil {
		return stagePlan{}, err
	}
	fps := map[Stage]string{StageTrace: workloadFP}
	fps[StageProfile] = fingerprint.Chain(profileFP, fps[StageTrace])
	fps[StageProblems] = fingerprint.Chain(problemsFP, fps[StageProfile])
	fps[StageSlices] = fingerprint.Chain(slicerFP, fps[StageProblems])
	fps[StageCurves] = fingerprint.Chain(critFP, fps[StageProblems])
	fps[StageBaseline] = fingerprint.Chain(timingFP, fps[StageTrace])
	fps[StageParams] = fingerprint.Chain(deriveFP, fps[StageBaseline], fps[StageCurves])
	fps[StagePrepared] = preparedFP
	p.fps = fps
	return p, nil
}

// preparedFingerprint is the whole-config fingerprint behind the assembled
// preparation's store key, chained through the workload fingerprint. It is
// computed separately from the full stage plan so Runner.Prepare can key its
// outer store lookup without re-deriving every stage config on a cache hit.
func preparedFingerprint(cfg Config, workloadFP string) (string, error) {
	fp, err := fingerprint.JSON(cfg)
	if err != nil {
		return "", fmt.Errorf("%s stage: %w", StagePrepared, err)
	}
	return fingerprint.Chain(fp, workloadFP), nil
}

// workloadFingerprint returns the registered benchmark's content fingerprint
// (empty for the built-in corpus) plus a not-found error for unknown names,
// so entry points fail fast before touching the store.
func workloadFingerprint(name string) (string, error) {
	bm, err := program.ByName(name)
	if err != nil {
		return "", err
	}
	return bm.Fingerprint, nil
}

// ------------------------------------------------------- stage functions --
//
// Each stage is a plain function of its upstream artifacts and its own
// config struct; the Runner wraps them in the content-addressed store, and
// the uncached paths (custom programs, the free Prepare) call them directly.

func stageTrace(name string, input program.InputClass) (*trace.Trace, error) {
	bm, err := program.ByName(name)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Run(bm.Build(input))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return tr, nil
}

func stageProblems(prof *profile.Profile, pc problemsConfig) []*profile.LoadStats {
	return prof.ProblemLoads(pc.Coverage, pc.MinMisses)
}

func stageCurves(ctx context.Context, tr *trace.Trace, prof *profile.Profile,
	problems []*profile.LoadStats, ccfg critpath.Config) (map[int32]critpath.Curve, error) {
	cp := critpath.New(tr, prof, ccfg)
	curves := make(map[int32]critpath.Curve, len(problems))
	for _, ls := range problems {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		curves[ls.PC] = cp.CostCurve(ls.PC)
	}
	return curves, nil
}

func stageBaseline(ctx context.Context, name string, timingCfg cpu.Config, tr *trace.Trace) (*cpu.Result, error) {
	base, err := Simulate(ctx, timingCfg, tr, nil)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", name, err)
	}
	return base, nil
}

// baselineFor returns one configuration's view of a cached timing baseline:
// a clone whose energy breakdown is recomputed from the recorded event
// counts under that configuration's energy parameters. Simulation timing is
// independent of the energy model, so this is bit-identical to re-running
// the baseline under the full configuration — which is what lets sweep
// points that only mutate energy knobs reuse the cached baseline L0/E0.
func baselineFor(base *cpu.Result, p energy.Params) *cpu.Result {
	out := base.Clone()
	out.Energy = energy.Compute(p, out.Events)
	return out
}

// assemblePrepared builds the whole-config view from stage artifacts. base
// must already carry the requesting configuration's energy breakdown.
func assemblePrepared(name string, tr *trace.Trace, prof *profile.Profile, trees []*slicer.Tree,
	curves map[int32]critpath.Curve, base *cpu.Result, params pthsel.Params) *Prepared {
	return &Prepared{
		Name:     name,
		Trace:    tr,
		Prof:     prof,
		Trees:    trees,
		Curves:   curves,
		Baseline: base,
		Params:   params,
	}
}

// --------------------------------------------------------- staged runner --

// stage runs one pipeline stage through the content-addressed store,
// emitting stage events and tallying the per-stage outcome counters. A cold
// miss consults the disk spill tier before computing: the disk load happens
// inside the singleflight slot, so concurrent requesters of one artifact
// perform at most one load just as they perform at most one build, and a
// freshly built artifact is spilled back before the slot completes.
func (r *Runner) stage(ctx context.Context, name string, input program.InputClass,
	st Stage, plan stagePlan, compute func() (any, error)) (any, error) {
	key := artifactKey{name: name, input: input, stage: st, fp: plan.fps[st]}
	val, outcome, err := r.store.get(ctx, key, func() (any, error) {
		if v, ok, mapped := r.spillLoad(key); ok {
			sc := r.stageCount(st)
			sc.spill.Add(1)
			if mapped {
				sc.mapped.Add(1)
			}
			r.emit(ctx, Event{Kind: EventStageSpill, Bench: name, Input: input.String(), Stage: string(st)})
			return v, nil
		}
		r.stageCount(st).cold.Add(1)
		r.emit(ctx, Event{Kind: EventStageStart, Bench: name, Input: input.String(), Stage: string(st)})
		start := time.Now()
		v, cerr := compute()
		elapsed := time.Since(start)
		r.emit(ctx, Event{Kind: EventStageDone, Bench: name, Input: input.String(), Stage: string(st),
			Err: cerr, DurationNS: elapsed.Nanoseconds()})
		if cerr == nil {
			r.stageLatency(st).record(elapsed.Nanoseconds())
			r.spillSave(key, v)
		}
		return v, cerr
	})
	if err != nil {
		return nil, err
	}
	switch outcome {
	case storeHit:
		r.stageCount(st).hit.Add(1)
		r.emit(ctx, Event{Kind: EventStageCached, Bench: name, Input: input.String(), Stage: string(st)})
	case storeShared:
		r.stageCount(st).shared.Add(1)
	}
	return val, nil
}

// stagedPrepare assembles a Prepared from per-stage artifacts, computing
// each missing stage at most once per engine (shared across every sweep
// point, figure and campaign worker whose configuration agrees on the
// fields that stage reads). Each stage goes through ensureStage.
func (r *Runner) stagedPrepare(ctx context.Context, name string, input program.InputClass, cfg Config) (*Prepared, error) {
	wfp, err := workloadFingerprint(name)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(cfg, wfp)
	if err != nil {
		return nil, err
	}
	vals := make(map[Stage]any, len(stageDeps))
	for _, st := range Stages() {
		if st == StagePrepared {
			break // assembled below, not through the store (we are its compute)
		}
		v, err := r.ensureStage(ctx, name, input, cfg, plan, st)
		if err != nil {
			return nil, err
		}
		vals[st] = v
	}
	base := baselineFor(vals[StageBaseline].(*cpu.Result), cfg.CPU.Energy)
	p := assemblePrepared(name, vals[StageTrace].(*trace.Trace), vals[StageProfile].(*profile.Profile),
		vals[StageSlices].([]*slicer.Tree), vals[StageCurves].(map[int32]critpath.Curve),
		base, vals[StageParams].(pthsel.Params))
	p.Input = input
	return p, nil
}

// ensureStage requests one pipeline stage through the content-addressed
// store, computing it on a cold miss. Compute closures read their upstream
// artifacts through upstreamStage: when the caller already ordered them —
// as the sequential stagedPrepare walk does — that read is a free peek; an
// out-of-order call recursively ensures them, so ensureStage is correct
// from any call site.
func (r *Runner) ensureStage(ctx context.Context, name string, input program.InputClass,
	cfg Config, plan stagePlan, st Stage) (any, error) {
	up := func(u Stage) (any, error) { return r.upstreamStage(ctx, name, input, cfg, plan, u) }
	switch st {
	case StageTrace:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			return stageTrace(name, input)
		})
	case StageProfile:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			trV, err := up(StageTrace)
			if err != nil {
				return nil, err
			}
			return profile.Collect(trV.(*trace.Trace), plan.profileCfg), nil
		})
	case StageProblems:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			profV, err := up(StageProfile)
			if err != nil {
				return nil, err
			}
			return stageProblems(profV.(*profile.Profile), plan.problemsCfg), nil
		})
	case StageSlices:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			tr, prof, problems, err := r.analysisInputs(ctx, name, input, cfg, plan)
			if err != nil {
				return nil, err
			}
			return slicer.BuildTrees(tr, prof, problems, plan.slicerCfg), nil
		})
	case StageCurves:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			tr, prof, problems, err := r.analysisInputs(ctx, name, input, cfg, plan)
			if err != nil {
				return nil, err
			}
			return stageCurves(ctx, tr, prof, problems, plan.critCfg)
		})
	case StageBaseline:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			trV, err := up(StageTrace)
			if err != nil {
				return nil, err
			}
			return stageBaseline(ctx, name, plan.timingCfg, trV.(*trace.Trace))
		})
	case StageParams:
		return r.stage(ctx, name, input, st, plan, func() (any, error) {
			baseV, err := up(StageBaseline)
			if err != nil {
				return nil, err
			}
			curvesV, err := up(StageCurves)
			if err != nil {
				return nil, err
			}
			base := baselineFor(baseV.(*cpu.Result), cfg.CPU.Energy)
			return plan.deriveCfg.Derive(float64(base.Cycles), base.Energy.Total(),
				base.IPC(), curvesV.(map[int32]critpath.Curve)), nil
		})
	case StagePrepared:
		return r.Prepare(ctx, name, input, cfg)
	}
	return nil, fmt.Errorf("experiments: unknown pipeline stage %q", st)
}

// analysisInputs gathers the (trace, profile, problems) triple the two
// analysis stages consume.
func (r *Runner) analysisInputs(ctx context.Context, name string, input program.InputClass,
	cfg Config, plan stagePlan) (*trace.Trace, *profile.Profile, []*profile.LoadStats, error) {
	trV, err := r.upstreamStage(ctx, name, input, cfg, plan, StageTrace)
	if err != nil {
		return nil, nil, nil, err
	}
	profV, err := r.upstreamStage(ctx, name, input, cfg, plan, StageProfile)
	if err != nil {
		return nil, nil, nil, err
	}
	problemsV, err := r.upstreamStage(ctx, name, input, cfg, plan, StageProblems)
	if err != nil {
		return nil, nil, nil, err
	}
	return trV.(*trace.Trace), profV.(*profile.Profile), problemsV.([]*profile.LoadStats), nil
}

// upstreamStage reads an upstream artifact from inside a compute closure:
// peek first — the value is an input being read, not a new request, so a
// completed entry costs no counter or event traffic — falling back to a
// full ensure when nothing ordered it yet (or a cancellation retired it).
func (r *Runner) upstreamStage(ctx context.Context, name string, input program.InputClass,
	cfg Config, plan stagePlan, st Stage) (any, error) {
	key := artifactKey{name: name, input: input, stage: st, fp: plan.fps[st]}
	if v, err, ok := r.store.peek(key); ok {
		return v, err
	}
	return r.ensureStage(ctx, name, input, cfg, plan, st)
}
