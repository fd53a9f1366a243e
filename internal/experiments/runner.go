package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifactdisk"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// EventKind classifies an observer notification.
type EventKind string

// Observer event kinds, in lifecycle order.
const (
	EventPrepareStart  EventKind = "prepare-start"  // a cold preparation assembly began
	EventPrepareDone   EventKind = "prepare-done"   // a cold preparation assembly finished
	EventPrepareCached EventKind = "prepare-cached" // the artifact store satisfied a whole preparation
	EventStageStart    EventKind = "stage-start"    // a cold pipeline stage began (Stage names it)
	EventStageDone     EventKind = "stage-done"     // a cold pipeline stage finished
	EventStageCached   EventKind = "stage-cached"   // the artifact store satisfied a pipeline stage
	EventStageSpill    EventKind = "stage-spill"    // the disk tier satisfied a pipeline stage
	EventRunStart      EventKind = "run-start"      // one (benchmark, target) measurement began
	EventRunDone       EventKind = "run-done"       // one (benchmark, target) measurement finished
	EventBenchDone     EventKind = "bench-done"     // one campaign benchmark finished (Done/Total track progress)
	EventPointDone     EventKind = "point-done"     // one sweep grid point finished (Point labels it)
)

// Event is one progress notification delivered to a Runner's observer.
// Fields beyond Kind and Bench are populated where meaningful: Input for
// preparation and stage events, Stage for stage events, Target for run
// events, Point for sweep progress, Done/Total for campaign and sweep
// progress, Err when the step failed.
type Event struct {
	Kind   EventKind
	Bench  string
	Input  string
	Stage  string
	Target string
	Point  string
	Done   int
	Total  int
	Err    error

	// DurationNS carries the build's wall-clock nanoseconds on
	// EventStageDone and EventPrepareDone (0 otherwise), so observers can
	// attribute time to stages.
	DurationNS int64

	// SimCyclesPerSec carries the run's measured simulator throughput on
	// EventRunDone (0 otherwise), so observers can stream substrate health
	// alongside progress.
	SimCyclesPerSec float64

	// Tag carries the submission tag threaded through the context (see
	// WithEventTag), so a shared observer can attribute events from
	// concurrent entry points — the daemon routes them to jobs with it.
	Tag string
}

// eventTagKey is the context key behind WithEventTag.
type eventTagKey struct{}

// WithEventTag returns a context whose Runner events carry tag, letting one
// observer demultiplex concurrent Sweeps, Campaigns and Prepares over a
// shared engine. Events emitted from inside a shared singleflight build
// carry the computing caller's tag.
func WithEventTag(ctx context.Context, tag string) context.Context {
	return context.WithValue(ctx, eventTagKey{}, tag)
}

func eventTag(ctx context.Context) string {
	tag, _ := ctx.Value(eventTagKey{}).(string)
	return tag
}

// Runner is the experiment engine behind the public Lab façade. It owns the
// staged artifact store — every pipeline stage cached under a per-stage
// content fingerprint, so figures, sweeps, studies and campaign workers
// sharing one Runner share every upstream artifact their configurations
// agree on — and a bounded worker pool for multi-benchmark fan-out.
type Runner struct {
	cfg         Config
	parallelism int
	observe     func(Event)

	// mappedSpill enables the zero-copy mmap trace-spill path (the
	// default; see SetMappedSpill). It is deliberately outside Config so it
	// never reaches a fingerprint: results are byte-identical mapped or
	// decoded, only the load cost changes.
	mappedSpill bool

	// mappings holds the live artifact mappings whose columns back mapped
	// traces. In-memory artifacts live for the Runner's lifetime, so their
	// backing mappings must too; the store's deferred byte accounting
	// handles eviction underneath a live reader.
	mapMu    sync.Mutex
	mappings []*artifactdisk.Mapping

	obsMu sync.Mutex // serializes observer callbacks

	store *artifactStore
	disk  *artifactdisk.Store // optional spill tier (see AttachDiskStore)

	stageStats []stageCounters    // per-stage request outcomes, indexed by stageIndex
	stageLat   []latencyReservoir // per-stage cold-build latencies, same indexing
}

// stageCounters tallies one stage's artifact-store request outcomes.
type stageCounters struct {
	cold   atomic.Int64 // this engine executed the stage
	hit    atomic.Int64 // served from a completed in-memory entry
	shared atomic.Int64 // waited on another caller's in-flight build
	spill  atomic.Int64 // satisfied by a disk-tier load
	mapped atomic.Int64 // of the spill loads, served via the mmap path
}

// NewRunner creates an engine over cfg. parallelism bounds concurrent
// benchmark evaluations (<= 0 means GOMAXPROCS); observe, if non-nil,
// receives progress events (serialized, from worker goroutines).
func NewRunner(cfg Config, parallelism int, observe func(Event)) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		cfg:         cfg,
		parallelism: parallelism,
		observe:     observe,
		mappedSpill: true,
		store:       newArtifactStore(),
		stageStats:  make([]stageCounters, len(stageIndex)),
		stageLat:    make([]latencyReservoir, len(stageIndex)),
	}
}

// Config returns the engine's base configuration.
func (r *Runner) Config() Config { return r.cfg }

// SetMappedSpill toggles the zero-copy mmap path for trace spill loads
// (enabled by default). Disabled — or on platforms without mmap — warm
// trace loads fall back to the chunk-parallel heap decode. Results are
// byte-identical either way; only load cost and memory sharing change.
// Call before issuing work; it is not synchronized with in-flight loads.
func (r *Runner) SetMappedSpill(enabled bool) { r.mappedSpill = enabled }

// stageIndex maps each pipeline stage to its counter slot, derived from
// Stages() so the stage list is maintained in exactly one place.
var stageIndex = func() map[Stage]int {
	m := make(map[Stage]int, len(Stages()))
	for i, st := range Stages() {
		m[st] = i
	}
	return m
}()

func (r *Runner) stageCount(st Stage) *stageCounters {
	i, ok := stageIndex[st]
	if !ok {
		//lab:allow(panicpath: internal invariant; every Stage constant is in stageIndex, so a miss is a programming error in this package)
		panic(fmt.Sprintf("experiments: unknown pipeline stage %q", st))
	}
	return &r.stageStats[i]
}

// StagePrepares reports how many cold executions of one pipeline stage the
// engine has performed, across all benchmarks and configurations — the
// observable behind the per-stage reuse guarantee (a 3-point sweep along an
// axis a stage never reads executes that stage once per benchmark). A stage
// satisfied by the disk spill tier is not a cold execution; StoreStats
// breaks out every outcome. StagePrepares(StagePrepared) equals Prepares().
func (r *Runner) StagePrepares(st Stage) int64 {
	i, ok := stageIndex[st]
	if !ok {
		return 0
	}
	return r.stageStats[i].cold.Load()
}

// latencyWindow bounds each stage's latency reservoir: percentiles are over
// the most recent builds, so a daemon that has been up for days reports
// current behaviour, not its lifetime average.
const latencyWindow = 256

// latencyReservoir is a mutex-guarded ring of recent build durations, the
// sample behind the per-stage p50/p95 in StoreStats.
type latencyReservoir struct {
	mu  sync.Mutex
	buf []int64 // nanoseconds, ring once full
	pos int
}

func (l *latencyReservoir) record(ns int64) {
	l.mu.Lock()
	if len(l.buf) < latencyWindow {
		l.buf = append(l.buf, ns)
	} else {
		l.buf[l.pos] = ns
		l.pos = (l.pos + 1) % latencyWindow
	}
	l.mu.Unlock()
}

// percentiles reports the window's p50 and p95 (nearest-rank), 0/0 when no
// build has been observed.
func (l *latencyReservoir) percentiles() (p50, p95 int64) {
	l.mu.Lock()
	s := append([]int64(nil), l.buf...)
	l.mu.Unlock()
	if len(s) == 0 {
		return 0, 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) int64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return rank(0.50), rank(0.95)
}

func (r *Runner) stageLatency(st Stage) *latencyReservoir {
	i, ok := stageIndex[st]
	if !ok {
		//lab:allow(panicpath: internal invariant; every Stage constant is in stageIndex, so a miss is a programming error in this package)
		panic(fmt.Sprintf("experiments: unknown pipeline stage %q", st))
	}
	return &r.stageLat[i]
}

func (r *Runner) emit(ctx context.Context, ev Event) {
	if r.observe == nil {
		return
	}
	ev.Tag = eventTag(ctx)
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	r.observe(ev)
}

// Prepare returns the (benchmark, input, cfg) preparation. The assembled
// whole-config view is computed at most once per engine, and each of its
// pipeline stages is cached individually under a per-stage content
// fingerprint, so two configurations that agree on the fields a stage reads
// share that stage's artifact (a sweep point that mutates one knob rebuilds
// only the stages downstream of it). Concurrent requests for the same
// artifact share a single in-flight computation. Failed computations are
// cached (a benchmark that cannot prepare will not prepare on retry) except
// when the failure was a context cancellation, which is the waiting
// caller's problem, not the artifact's.
func (r *Runner) Prepare(ctx context.Context, name string, input program.InputClass, cfg Config) (*Prepared, error) {
	if err := validateEngine(cfg.CPU.Engine); err != nil {
		return nil, err
	}
	// The outer key needs only the whole-config fingerprint chained through
	// the workload fingerprint; the full stage plan is computed once, on a
	// cold miss, inside stagedPrepare.
	wfp, err := workloadFingerprint(name)
	if err != nil {
		return nil, err
	}
	fp, err := preparedFingerprint(cfg, wfp)
	if err != nil {
		return nil, err
	}
	key := artifactKey{name: name, input: input, stage: StagePrepared, fp: fp}
	val, outcome, err := r.store.get(ctx, key, func() (any, error) {
		r.stageCount(StagePrepared).cold.Add(1)
		r.emit(ctx, Event{Kind: EventPrepareStart, Bench: name, Input: input.String()})
		start := time.Now()
		p, perr := r.stagedPrepare(ctx, name, input, cfg)
		elapsed := time.Since(start)
		r.emit(ctx, Event{Kind: EventPrepareDone, Bench: name, Input: input.String(),
			Err: perr, DurationNS: elapsed.Nanoseconds()})
		if perr == nil {
			r.stageLatency(StagePrepared).record(elapsed.Nanoseconds())
		}
		return p, perr
	})
	if err != nil {
		return nil, err
	}
	switch outcome {
	case storeHit:
		r.stageCount(StagePrepared).hit.Add(1)
		r.emit(ctx, Event{Kind: EventPrepareCached, Bench: name, Input: input.String()})
	case storeShared:
		r.stageCount(StagePrepared).shared.Add(1)
	}
	return val.(*Prepared), nil
}

// validateNames rejects unknown and silently-duplicated benchmark names
// with a single error listing every problem and the valid set. Entry points
// that fan out over benchmark lists (campaigns, figures, sweeps) call it up
// front so a typo fails fast instead of surfacing as one opaque
// per-benchmark failure deep in a long run.
func validateNames(names []string) error {
	if len(names) == 0 {
		return errors.New("experiments: no benchmarks given")
	}
	valid := make(map[string]bool)
	for _, n := range program.Names() {
		valid[n] = true
	}
	seen := make(map[string]bool, len(names))
	var unknown, dups []string
	for _, n := range names {
		if !valid[n] {
			unknown = append(unknown, n)
		} else if seen[n] {
			dups = append(dups, n)
		}
		seen[n] = true
	}
	if len(unknown) == 0 && len(dups) == 0 {
		return nil
	}
	all := program.Names()
	sort.Strings(all)
	var parts []string
	if len(unknown) > 0 {
		parts = append(parts, fmt.Sprintf("unknown benchmarks %s", strings.Join(unknown, ", ")))
	}
	if len(dups) > 0 {
		parts = append(parts, fmt.Sprintf("duplicated benchmarks %s", strings.Join(dups, ", ")))
	}
	return fmt.Errorf("experiments: %s (valid: %s)", strings.Join(parts, "; "), strings.Join(all, ", "))
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// forEach runs fn(0..n-1) on the bounded pool and waits for completion. It
// stops launching new work once ctx is cancelled; already-running work is
// interrupted by its own ctx checks.
func (r *Runner) forEach(ctx context.Context, n int, fn func(i int)) {
	sem := make(chan struct{}, r.parallelism)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runBench evaluates one benchmark under every target, preparing through
// the artifact store.
func (r *Runner) runBench(ctx context.Context, name string, targets []pthsel.Target, cfg Config) (*BenchResult, error) {
	prep, err := r.Prepare(ctx, name, cfg.MeasureInput, cfg)
	if err != nil {
		return nil, err
	}
	br := &BenchResult{Name: name, Prepared: prep, Runs: map[pthsel.Target]*TargetRun{}}
	for _, tgt := range targets {
		r.emit(ctx, Event{Kind: EventRunStart, Bench: name, Target: tgt.String()})
		run, err := RunTarget(ctx, prep, prep, tgt, cfg)
		ev := Event{Kind: EventRunDone, Bench: name, Target: tgt.String(), Err: err}
		if err == nil {
			ev.SimCyclesPerSec = run.SimCyclesPerSec()
		}
		r.emit(ctx, ev)
		if err != nil {
			return nil, err
		}
		br.Runs[tgt] = run
	}
	return br, nil
}

// benchResults evaluates names × targets on the pool. The returned slice is
// parallel to names with nil holes for failed benchmarks; the error is the
// join of every per-benchmark failure.
func (r *Runner) benchResults(ctx context.Context, names []string, targets []pthsel.Target, cfg Config) ([]*BenchResult, error) {
	results := make([]*BenchResult, len(names))
	errs := make([]error, len(names))
	r.forEach(ctx, len(names), func(i int) {
		br, err := r.runBench(ctx, names[i], targets, cfg)
		results[i] = br
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", names[i], err)
		}
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, errors.Join(errs...)
}

// Campaign evaluates names × targets on the pool and reports per-benchmark
// outcomes instead of failing the whole batch on the first error: every
// benchmark that succeeded carries its baseline and runs, every one that
// failed carries its error string. Unknown or duplicated benchmark names
// are rejected up front (see validateNames); beyond that, the returned
// error is non-nil only when the context was cancelled, and per-benchmark
// runtime failures are reported through the CampaignReport (see its Err
// method).
func (r *Runner) Campaign(ctx context.Context, names []string, targets []pthsel.Target) (*CampaignReport, error) {
	if err := validateNames(names); err != nil {
		return nil, err
	}
	entries := make([]CampaignBench, len(names))
	for i, name := range names {
		entries[i] = CampaignBench{Name: name}
	}
	errs := make([]error, len(names))
	var done atomic.Int64
	r.forEach(ctx, len(names), func(i int) {
		name := names[i]
		br, err := r.runBench(ctx, name, targets, r.cfg)
		if err != nil {
			entries[i].Error = err.Error()
			errs[i] = fmt.Errorf("%s: %w", name, err)
		} else {
			entries[i].Baseline = baselineReport(br.Prepared.Baseline)
			for _, tgt := range targets {
				entries[i].Runs = append(entries[i].Runs, runReport(br.Runs[tgt]))
			}
		}
		r.emit(ctx, Event{Kind: EventBenchDone, Bench: name, Err: err,
			Done: int(done.Add(1)), Total: len(names)})
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		// Benchmarks that never ran (cancelled before launch or mid-flight)
		// are failures too: without this, partial-report consumers would
		// see entries with neither results nor an error.
		for i := range entries {
			if entries[i].Error == "" && entries[i].Baseline == nil {
				entries[i].Error = "not run: " + ctxErr.Error()
				if errs[i] == nil {
					errs[i] = fmt.Errorf("%s: not run: %w", entries[i].Name, ctxErr)
				}
			}
		}
	}
	rep := &CampaignReport{
		Targets:    targetNames(targets),
		Benchmarks: entries,
		errs:       errs,
	}
	return rep, ctx.Err()
}

func targetNames(targets []pthsel.Target) []string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.String()
	}
	return names
}
