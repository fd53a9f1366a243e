package preexec

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// TestResultJSONDeterminism pins the simulator's determinism contract at
// the byte level: the same configuration and trace must yield byte-identical
// JSON Results across repeated runs — both for the baseline and for a
// p-thread-augmented run (which exercises spawn ordering, per-p-thread stat
// maps and prefetch crediting).
func TestResultJSONDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := experiments.DefaultConfig()
	prep, err := experiments.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	marshalRun := func() []byte {
		run, err := experiments.RunTarget(ctx, prep, prep, pthsel.TargetL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(run.Res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	marshalBase := func() []byte {
		res, err := cpu.RunContext(ctx, cfg.CPU, prep.Trace, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(marshalBase(), marshalBase()) {
		t.Error("baseline Result JSON differs across repeated runs")
	}
	if !bytes.Equal(marshalRun(), marshalRun()) {
		t.Error("target-L Result JSON differs across repeated runs")
	}
}

// stripWallClock zeroes the only legitimately nondeterministic fields in a
// campaign report (measured simulator throughput) so the remainder can be
// compared byte-for-byte.
func stripWallClock(rep *CampaignReport) {
	for i := range rep.Benchmarks {
		for j := range rep.Benchmarks[i].Runs {
			rep.Benchmarks[i].Runs[j].SimCyclesPerSec = 0
		}
	}
}

// TestCampaignDeterministicAcrossParallelism runs the same campaign on a
// serial engine and on an 8-wide worker pool: every simulated number must be
// byte-identical (each benchmark simulates single-threaded; the pool only
// reorders whole benchmarks, and reports are assembled in input order). A
// two-axis sweep gets the same check at parallelism 1 vs 4, plus equal cold
// builds per stage: the pool may reorder grid points, never add or drop
// stage work.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	names := PaperBenchmarks()[:4]
	targets := []Target{TargetL}
	campaign := func(par int) []byte {
		rep, err := New(WithParallelism(par)).RunCampaign(ctx, names, targets)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		stripWallClock(rep)
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	serial := campaign(1)
	wide := campaign(8)
	if !bytes.Equal(serial, wide) {
		t.Errorf("campaign JSON differs between WithParallelism(1) and WithParallelism(8)\nserial: %s\nwide:   %s", serial, wide)
	}

	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor), GridAxis(SweepMemLatency)},
		Benchmarks: []string{"gap", "twolf"},
		Targets:    []Target{TargetL},
	}
	sweep := func(par int) ([]byte, *Lab) {
		lab := New(WithParallelism(par))
		rep, err := lab.Sweep(ctx, grid)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(stripSweepThroughput(rep))
		if err != nil {
			t.Fatal(err)
		}
		return raw, lab
	}
	serialSweep, serialLab := sweep(1)
	wideSweep, wideLab := sweep(4)
	if !bytes.Equal(serialSweep, wideSweep) {
		t.Errorf("sweep JSON differs between WithParallelism(1) and WithParallelism(4)\nserial: %s\nwide:   %s", serialSweep, wideSweep)
	}
	for _, st := range Stages() {
		if s, w := serialLab.StagePrepares(st), wideLab.StagePrepares(st); s != w {
			t.Errorf("StagePrepares(%s): serial %d, 4-wide %d", st, s, w)
		}
	}
}

// TestWorkerSimReuseDeterministicUnderParallelism pins the zero-allocation
// run-reuse path: every timing simulation goes through the engine's
// simulator pool, so an 8-wide campaign has workers concurrently grabbing,
// Resetting and returning pooled simulators whose arrays were grown by
// earlier, unrelated runs. Repeating the campaign on the same Lab (second
// pass guaranteed to reuse warm simulators) and on a serial Lab must yield
// byte-identical reports. The CI race job runs this under -race, making it
// the data-race sentinel for per-worker simulator reuse.
func TestWorkerSimReuseDeterministicUnderParallelism(t *testing.T) {
	ctx := context.Background()
	names := PaperBenchmarks()[:4]
	targets := []Target{TargetL, TargetE}
	run := func(lab *Lab) []byte {
		rep, err := lab.RunCampaign(ctx, names, targets)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		stripWallClock(rep)
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	wide := New(WithParallelism(8))
	first := run(wide)
	second := run(wide) // warm pool: simulators reused across benchmarks
	serial := run(New(WithParallelism(1)))
	if !bytes.Equal(first, second) {
		t.Error("repeated campaign on a warm simulator pool diverged from the cold pass")
	}
	if !bytes.Equal(first, serial) {
		t.Error("8-wide pooled-simulator campaign diverged from serial execution")
	}
}
