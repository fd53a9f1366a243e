package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/pthsel"
	"repro/internal/trace"
)

// probes are the direct timings of single layers' public functions on a
// workload's own prepared inputs, summed over the probed benchmarks.
type probes struct {
	benches   int
	critTime  time.Duration // critpath.New + CostCurve for every problem load
	critInsts int64         // trace instructions those analyses walked
	simTime   time.Duration // experiments.Simulate: baseline and L-target p-threads
	simCycles int64
	encode    time.Duration // trace.EncodeBinaryV2
	mapped    time.Duration // trace.MapBytes
	decode    time.Duration // trace.DecodeBinaryV2
	selection time.Duration // pthsel.Select for L, E and P
	selects   int
}

// probeLayers loads each named benchmark's preparation from the run's
// store directory (through a fresh engine, so nothing is rebuilt) and times
// each layer's public functions on it directly. Each probe's output is
// checked against the stored artifact it recomputes, so a probe that
// drifted from the pipeline's configuration fails loudly.
func probeLayers(ctx context.Context, dir string, names []string) (probes, error) {
	var p probes
	cfg := experiments.DefaultConfig()
	r := experiments.NewRunner(cfg, workers, nil)
	if err := r.AttachDiskStore(dir, 0); err != nil {
		return p, fmt.Errorf("probe store: %w", err)
	}
	ccfg := critpath.DefaultConfig(cfg.CPU.Hier)
	ccfg.Width = cfg.CPU.DispatchWidth
	ccfg.ROBSize = cfg.CPU.ROBSize
	ccfg.MispredPen = cfg.CPU.FrontEndDepth + cfg.CPU.RedirectPen

	for _, name := range names {
		prep, err := r.Prepare(ctx, name, cfg.MeasureInput, cfg)
		if err != nil {
			return p, fmt.Errorf("probe %s: %w", name, err)
		}
		p.benches++

		pcs := make([]int32, 0, len(prep.Curves))
		for pc := range prep.Curves {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		start := time.Now()
		a := critpath.New(prep.Trace, prep.Prof, ccfg)
		curves := make([]critpath.Curve, len(pcs))
		for i, pc := range pcs {
			curves[i] = a.CostCurve(pc)
		}
		p.critTime += time.Since(start)
		p.critInsts += int64(prep.Trace.Len())
		for i, pc := range pcs {
			if curves[i] != prep.Curves[pc] {
				return p, fmt.Errorf("probe %s: critpath curve of pc %d differs from the stored curves stage", name, pc)
			}
		}

		var selL *pthsel.Selection
		for _, tgt := range []pthsel.Target{pthsel.TargetL, pthsel.TargetE, pthsel.TargetP} {
			start = time.Now()
			sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, tgt)
			p.selection += time.Since(start)
			p.selects++
			if tgt == pthsel.TargetL {
				selL = sel
			}
		}

		start = time.Now()
		base, err := experiments.Simulate(ctx, cfg.CPU, prep.Trace, nil)
		if err != nil {
			return p, fmt.Errorf("probe %s baseline: %w", name, err)
		}
		withL, err := experiments.Simulate(ctx, cfg.CPU, prep.Trace, selL.PThreads)
		if err != nil {
			return p, fmt.Errorf("probe %s L run: %w", name, err)
		}
		p.simTime += time.Since(start)
		p.simCycles += base.Cycles + withL.Cycles
		if base.Cycles != prep.Baseline.Cycles {
			return p, fmt.Errorf("probe %s: baseline simulates %d cycles, stored baseline has %d",
				name, base.Cycles, prep.Baseline.Cycles)
		}

		var buf bytes.Buffer
		start = time.Now()
		if err := prep.Trace.EncodeBinaryV2(&buf); err != nil {
			return p, fmt.Errorf("probe %s encode: %w", name, err)
		}
		p.encode += time.Since(start)
		data := buf.Bytes()
		start = time.Now()
		mt, _, err := trace.MapBytes(data, prep.Trace.Prog)
		if err != nil {
			return p, fmt.Errorf("probe %s map: %w", name, err)
		}
		p.mapped += time.Since(start)
		start = time.Now()
		dt, err := trace.DecodeBinaryV2(data, prep.Trace.Prog)
		if err != nil {
			return p, fmt.Errorf("probe %s decode: %w", name, err)
		}
		p.decode += time.Since(start)
		if mt.Len() != prep.Trace.Len() || dt.Len() != prep.Trace.Len() {
			return p, fmt.Errorf("probe %s: trace round trip changed its length", name)
		}
	}
	return p, nil
}
