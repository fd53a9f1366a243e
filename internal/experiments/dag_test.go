package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pthsel"
)

// TestSweepDAGExport pins the plan export: node dedup across grid points,
// one measurement sink per job, cold→cached status transitions against the
// live store, and well-formed DOT.
func TestSweepDAGExport(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(DefaultConfig(), 0, nil)
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap"},
		Targets:    []pthsel.Target{pthsel.TargetL},
	}

	dag, err := r.SweepDAG(grid)
	if err != nil {
		t.Fatal(err)
	}
	var sinks, cold, cached int
	for _, n := range dag.Nodes {
		switch n.Status {
		case dagMeasure:
			sinks++
		case dagCold:
			cold++
		case dagCached:
			cached++
		}
	}
	if sinks != 3 {
		t.Errorf("DAG has %d measurement sinks, want 3 (one per grid point)", sinks)
	}
	if cached != 0 {
		t.Errorf("fresh engine planned %d cached nodes, want 0", cached)
	}
	// The idle axis only perturbs params/prepared: heavy stages dedup to one
	// node each, so the stage-node count is far below 3 points × 8 stages.
	if stageNodes := len(dag.Nodes) - sinks; stageNodes >= 3*len(Stages()) {
		t.Errorf("stage nodes not deduplicated: %d nodes for a 3-point single-bench grid", stageNodes)
	}
	if cold == 0 || len(dag.Edges) == 0 {
		t.Errorf("degenerate plan: %d cold nodes, %d edges", cold, len(dag.Edges))
	}
	for _, e := range dag.Edges {
		if e.From < 0 || e.From >= e.To || e.To >= len(dag.Nodes) {
			t.Errorf("edge %d -> %d is not a forward edge between existing nodes", e.From, e.To)
		}
	}

	dot := dag.DOT()
	for _, want := range []string{"digraph stages {", "->", "gap/train", "[cold]", "[measure]", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}

	// Planning must not execute or count anything...
	if n := r.StagePrepares(StageTrace); n != 0 {
		t.Fatalf("SweepDAG executed %d trace builds", n)
	}
	// ...and after the sweep actually runs, a re-plan sees a warm store.
	if _, err := r.Sweep(ctx, grid); err != nil {
		t.Fatal(err)
	}
	dag2, err := r.SweepDAG(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range dag2.Nodes {
		if n.Status == dagCold || n.Status == dagSpill {
			t.Errorf("post-sweep plan still projects %s/%s %s as %s", n.Bench, n.Input, n.Stage, n.Status)
		}
	}
}

// TestStageBuildDurations pins the build-timing observations: every
// stage-done event carries its wall-clock DurationNS, and the same builds
// feed the per-stage latency reservoir behind StoreStats.
func TestStageBuildDurations(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	var stageDones, timedDones atomic.Int64
	r := NewRunner(cfg, 0, func(ev Event) {
		if ev.Kind == EventStageDone {
			stageDones.Add(1)
			if ev.DurationNS > 0 {
				timedDones.Add(1)
			}
		}
	})
	if _, err := r.Prepare(ctx, "gap", cfg.MeasureInput, cfg); err != nil {
		t.Fatal(err)
	}
	if n, timed := stageDones.Load(), timedDones.Load(); n == 0 || timed != n {
		t.Errorf("%d of %d stage-done events carried DurationNS", timed, n)
	}
	st := r.StoreStats()
	tr := st.Stages[StageTrace]
	if tr.P50BuildNS <= 0 || tr.P95BuildNS < tr.P50BuildNS {
		t.Errorf("trace build-latency percentiles malformed: p50 %d, p95 %d", tr.P50BuildNS, tr.P95BuildNS)
	}
	if un := st.Stages[StageCurves]; un.Cold != 1 {
		t.Errorf("curves cold count = %d, want 1", un.Cold)
	}
}
