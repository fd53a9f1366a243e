package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	preexec "repro"
	"repro/internal/labapi"
)

// references are the report digests every check compares against: the
// figure suite's reports by entry point, and daemon jobs' artifacts by job
// key. They were computed by -write-refs through a plain in-memory Lab —
// no daemon, no disk tier — so they also cross-check those paths.
type references struct {
	Suite map[string]string `json:"suite"`
	Jobs  map[string]string `json:"jobs"`
}

//go:embed testdata/refs.json
var refsJSON []byte

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return refs, fmt.Errorf("reference digests: %w", err)
	}
	return refs, nil
}

// writeReferences recomputes every reference digest: the suite on one
// Lab, each daemon-repeat grid and every spec of the daemon-novel pool as
// a direct Lab.Sweep of the grid the daemon would build.
func writeReferences(path string) error {
	ctx := context.Background()
	refs := references{Suite: map[string]string{}, Jobs: map[string]string{}}
	lab := preexec.New(preexec.WithParallelism(workers))
	for _, ep := range paperSuite() {
		rep, err := ep.call(ctx, lab)
		if err != nil {
			return fmt.Errorf("%s: %w", ep.name, err)
		}
		if refs.Suite[ep.name], err = digestReport(rep); err != nil {
			return err
		}
	}
	jobs := repeatGrids()
	for _, fam := range preexec.WorkloadFamilies() {
		for i := 1; i <= novelPool; i++ {
			jobs = append(jobs, novelJob(fmt.Sprintf("%s:%d", fam, i)))
		}
	}
	for _, jr := range jobs {
		g, err := gridOf(jr.req)
		if err != nil {
			return fmt.Errorf("%s: %w", jr.key, err)
		}
		// A fresh engine per job keeps memory flat over the novel pool.
		rep, err := preexec.New(preexec.WithParallelism(workers)).Sweep(ctx, g)
		if err != nil {
			return fmt.Errorf("%s: %w", jr.key, err)
		}
		if refs.Jobs[jr.key], err = digestReport(rep); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// gridOf resolves a sweep request the way the daemon does.
func gridOf(req labapi.SweepRequest) (preexec.Grid, error) {
	var g preexec.Grid
	for _, name := range req.Axes {
		axis, err := preexec.ParseSweepAxis(name)
		if err != nil {
			return g, err
		}
		g.Axes = append(g.Axes, preexec.GridAxis(axis))
	}
	g.Benchmarks = req.Benchmarks
	for _, spec := range req.Workloads {
		parsed, err := preexec.ParseWorkloadSpec(spec)
		if err != nil {
			return g, err
		}
		g.Workloads = append(g.Workloads, preexec.WorkloadPoint{Label: spec, Spec: parsed})
	}
	for _, t := range req.Targets {
		tgt, err := preexec.ParseTarget(t)
		if err != nil {
			return g, err
		}
		g.Targets = append(g.Targets, tgt)
	}
	return g, nil
}
