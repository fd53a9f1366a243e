package main

import (
	"context"
	"path/filepath"
	"runtime"
	"time"

	preexec "repro"
)

// entryPoint is one call of the paper's figure suite.
type entryPoint struct {
	name string
	call func(ctx context.Context, lab *preexec.Lab) (any, error)
}

// paperSuite is the reproduction's own job: Figures 2, 3 and 4, Table 3,
// Figure 5 on all three axes and the ED² study, in the order the report
// command runs them.
func paperSuite() []entryPoint {
	paper := preexec.PaperBenchmarks()
	eps := []entryPoint{
		{"figure2", func(ctx context.Context, l *preexec.Lab) (any, error) { return l.Figure2(ctx, paper) }},
		{"figure3", func(ctx context.Context, l *preexec.Lab) (any, error) { return l.Figure3(ctx, paper) }},
		{"table3", func(ctx context.Context, l *preexec.Lab) (any, error) {
			return l.Table3(ctx, preexec.Table3Benchmarks())
		}},
		{"figure4", func(ctx context.Context, l *preexec.Lab) (any, error) { return l.Figure4(ctx, paper) }},
	}
	for _, axis := range []preexec.SweepAxis{preexec.SweepIdleFactor, preexec.SweepMemLatency, preexec.SweepL2Size} {
		eps = append(eps, entryPoint{"figure5/" + axis.String(), func(ctx context.Context, l *preexec.Lab) (any, error) {
			return l.Figure5(ctx, axis, preexec.Figure5Benchmarks(axis))
		}})
	}
	return append(eps, entryPoint{"ed2", func(ctx context.Context, l *preexec.Lab) (any, error) {
		return l.ED2Study(ctx, paper)
	}})
}

// setupRepeats is how many times a run sets up an engine or daemon over
// its filled store directory; the median is setup_s.
const setupRepeats = 31

// suitePass is one pass over the suite: each entry point's report digest
// and latency, by name. Figure 3's report is kept for the gmeans.
type suitePass struct {
	digests map[string]string
	lat     map[string]float64 // ms
	fig3    *preexec.Figure3Report
	wall    time.Duration
}

func runSuitePass(ctx context.Context, lab *preexec.Lab, pass string, sp *spans, res *result) (suitePass, error) {
	out := suitePass{digests: map[string]string{}, lat: map[string]float64{}}
	start := time.Now()
	for _, ep := range paperSuite() {
		tag := pass + "/" + ep.name
		t0 := time.Now()
		rep, err := ep.call(preexec.WithEventTag(ctx, tag), lab)
		t1 := time.Now()
		res.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return out, err
			}
			res.fail("%s %s: %v", pass, ep.name, err)
			continue
		}
		sp.parent(tag, interval{t0, t1})
		out.lat[ep.name] = ms(t1.Sub(t0))
		if f3, ok := rep.(*preexec.Figure3Report); ok {
			out.fig3 = f3
		}
		d, err := digestReport(rep)
		if err != nil {
			return out, err
		}
		out.digests[ep.name] = d
	}
	out.wall = time.Since(start)
	return out, nil
}

// newSuiteLab builds the suite's engine over a store directory.
func newSuiteLab(dir string, sp *spans, traced bool) (*preexec.Lab, error) {
	opts := []preexec.Option{preexec.WithParallelism(workers), preexec.WithDiskStore(dir, 0)}
	if traced {
		opts = append(opts, preexec.WithObserver(sp.observe))
	}
	lab := preexec.New(opts...)
	if err := lab.DiskStoreErr(); err != nil {
		return nil, err
	}
	return lab, nil
}

// runPaperSuite runs the figure suite cold on a fresh engine over an empty
// store directory, then again on a fresh engine over the directory the
// cold pass filled. The seed is unused: the paper fixes the suite.
func runPaperSuite(ctx context.Context, o options) (*result, error) {
	res := &result{}
	sp := newSpans()
	store := newStoreTotals()

	dir := filepath.Join(o.dir, "store")
	lab, err := newSuiteLab(dir, sp, o.traced)
	if err != nil {
		return nil, err
	}
	before := lab.StoreStats()
	cold, err := runSuitePass(ctx, lab, "cold", sp, res)
	if err != nil {
		return nil, err
	}
	store.add(before, lab.StoreStats())

	// Set-up: an engine build over the filled store — opening it indexes
	// every spilled artifact — timed several times; the engines are dropped.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := newSuiteLab(dir, sp, o.traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The restart pass gets a fresh engine over the same directory; the
	// cold engine is no longer referenced, as after a process restart.
	t0 := time.Now()
	warm, err := newSuiteLab(dir, sp, o.traced)
	if err != nil {
		return nil, err
	}
	before = warm.StoreStats()
	restart, err := runSuitePass(ctx, warm, "restart", sp, res)
	if err != nil {
		return nil, err
	}
	restartWall := time.Since(t0)
	after := warm.StoreStats()
	store.add(before, after)

	// Correctness: both passes agree with each other and with the
	// reference digests; the restart pass builds nothing cold.
	for _, ep := range paperSuite() {
		c, r := cold.digests[ep.name], restart.digests[ep.name]
		if c == "" || r == "" {
			continue // already counted as failed
		}
		if c != r {
			res.fail("%s: restart report differs from cold report", ep.name)
		}
		if want := o.refs.Suite[ep.name]; c != want {
			res.fail("%s: report digest %.12s, reference %.12s", ep.name, c, want)
		}
	}
	if n := coldBuilds(before, after); n != 0 {
		res.fail("restart pass built %d trace/profile/slices/curves/baseline stages cold (want 0)", n)
	}
	if cold.fig3 != nil {
		noteGMeans(res, cold.fig3)
	}

	heap := liveHeapMB()
	runtime.KeepAlive(warm)

	for _, ep := range paperSuite() {
		res.notef("%-28s cold %8.1f ms  restart %8.1f ms", ep.name, cold.lat[ep.name], restart.lat[ep.name])
	}
	// A paper-suite job is one pass over the suite: what a user runs to
	// regenerate the paper. Single entry-point calls are too few (sixteen)
	// for a tail and too short to time steadily on a shared host; they are
	// printed above.
	passes := []float64{ms(cold.wall), ms(restartWall)}
	tl := tailOf(passes)
	res.notef("job_tail_ms is %s (suite passes)", tl)
	res.addE2E("setup_s", "s", median(setups))
	res.addE2E("cold_s", "s", cold.wall.Seconds())
	res.addE2E("restart_s", "s", restartWall.Seconds())
	res.addE2E("job_p50_ms", "ms", median(passes))
	res.addE2E("job_tail_ms", "ms", tl.Value)
	res.addE2E("jobs_per_s", "1/s", float64(len(passes))/(cold.wall+restartWall).Seconds())
	res.addE2E("live_heap_mb", "MB", heap)

	if o.traced {
		p, err := probeLayers(ctx, dir, preexec.PaperBenchmarks())
		if err != nil {
			return nil, err
		}
		lp, err := probeDaemon(ctx, dir)
		if err != nil {
			return nil, err
		}
		noteSplit(res, sp, "cold")
		noteSplit(res, sp, "restart")
		addLayerMetrics(res, sp, store, p, lp, cold.wall+restartWall)
	}
	return res, nil
}

// noteGMeans prints Figure 3's geometric means beside the paper's, the
// model's one stated gap to the paper.
func noteGMeans(res *result, f3 *preexec.Figure3Report) {
	for _, g := range f3.GMeans {
		switch g.Target {
		case "L":
			res.notef("figure3 gmean IPC gain of L-p-threads %+.1f%% (paper +16.4%%)", g.SpeedupPct)
		case "P":
			res.notef("figure3 gmean ED change of P-p-threads %+.1f%% (paper -8.8%%)", -g.EDSavePct)
		}
	}
	res.notef("the model is otherwise unvalidated against the paper")
}

// liveHeapMB is the Go heap still in use after two forced collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
