package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	preexec "repro"
)

// checkedStages are the stages the reuse contract covers: a warm pass
// (restart over a filled store, or a repeat job on a primed daemon) must
// build none of them cold.
var checkedStages = []preexec.Stage{"trace", "profile", "slices", "curves", "baseline"}

// buildStageMetric names the per-layer busy-time metric of each stage the
// benchmark reports it for.
var buildStageMetric = []struct {
	stage, metric string
}{
	{"trace", "trace.build_s"},
	{"profile", "profile.build_s"},
	{"slices", "slicer.build_s"},
	{"curves", "critpath.build_s"},
	{"baseline", "cpu.baseline_s"},
}

// spans is the traced run's span log: cold stage builds, keyed by the tag
// of the entry point or job that ran them, and those entry points' and
// jobs' own spans. Stage spans end when their stage-done event is observed
// and start DurationNS earlier.
type spans struct {
	mu      sync.Mutex
	stage   map[string][]stageSpan // by tag
	parents map[string]interval
	hooks   time.Duration // time spent in the tracing hooks themselves
}

// stageSpan is one cold stage build.
type stageSpan struct {
	stage string
	iv    interval
}

func newSpans() *spans {
	return &spans{stage: map[string][]stageSpan{}, parents: map[string]interval{}}
}

// stageDone records one cold stage build that finished at end.
func (s *spans) stageDone(tag, stage string, durNS int64, end time.Time) {
	d := time.Duration(durNS)
	s.mu.Lock()
	s.stage[tag] = append(s.stage[tag], stageSpan{stage, interval{end.Add(-d), end}})
	s.hooks += time.Since(end)
	s.mu.Unlock()
}

// observe is a Lab observer feeding the span log.
func (s *spans) observe(ev preexec.Event) {
	if ev.Kind == preexec.EventStageDone {
		s.stageDone(ev.Tag, ev.Stage, ev.DurationNS, time.Now())
	}
}

func (s *spans) parent(tag string, iv interval) {
	s.mu.Lock()
	s.parents[tag] = iv
	s.mu.Unlock()
}

// split sums, over the tags whose phase (the tag up to its first '/')
// matches phase — every tag for phase "" — each stage's busy time and
// every parent span's self time: the wall time no cold stage build of its
// own covers, which is measurement simulation, p-thread selection, disk
// loads and spills, and scheduling.
func (s *spans) split(phase string) (busy map[string]time.Duration, self time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	busy = map[string]time.Duration{}
	for tag, ss := range s.stage {
		if phase != "" && phaseOf(tag) != phase {
			continue
		}
		for _, st := range ss {
			busy[st.stage] += st.iv.end.Sub(st.iv.start)
		}
	}
	for tag, iv := range s.parents {
		if phase != "" && phaseOf(tag) != phase {
			continue
		}
		children := make([]interval, len(s.stage[tag]))
		for i, st := range s.stage[tag] {
			children[i] = st.iv
		}
		self += selfTime(iv, children)
	}
	return busy, self
}

func phaseOf(tag string) string {
	if i := strings.IndexByte(tag, '/'); i >= 0 {
		return tag[:i]
	}
	return tag
}

// noteSplit prints one phase's traced time split: measurement (parent self
// time) and each stage's busy time, as shares of their sum.
func noteSplit(res *result, sp *spans, phase string) {
	busy, self := sp.split(phase)
	total := self
	for _, d := range busy {
		total += d
	}
	if total == 0 {
		return
	}
	line := fmt.Sprintf("%s split of traced layer time %.2f s: measure %.0f%%", phase, total.Seconds(), 100*self.Seconds()/total.Seconds())
	for _, b := range buildStageMetric {
		line += fmt.Sprintf(", %s %.1f%%", b.stage, 100*busy[b.stage].Seconds()/total.Seconds())
	}
	res.notef("%s", line)
}

// storeTotals accumulates StoreStats deltas over a run's engines.
type storeTotals struct {
	outcome   map[preexec.Stage]*[4]int64 // cold, hit, shared, spill
	disk      preexec.DiskStoreStats      // counters summed; Bytes is the last engine's
	reqs, hit int64
}

func newStoreTotals() *storeTotals {
	return &storeTotals{outcome: map[preexec.Stage]*[4]int64{}}
}

// add folds in the growth from before to after of one engine's stats.
func (t *storeTotals) add(before, after preexec.StoreStats) {
	for _, st := range preexec.Stages() {
		b, a := before.Stages[st], after.Stages[st]
		o := t.outcome[st]
		if o == nil {
			o = new([4]int64)
			t.outcome[st] = o
		}
		d := [4]int64{a.Cold - b.Cold, a.Hit - b.Hit, a.Shared - b.Shared, a.SpillLoads - b.SpillLoads}
		for i := range d {
			o[i] += d[i]
		}
		t.reqs += d[0] + d[1] + d[2] + d[3]
		t.hit += d[1] + d[2] + d[3]
	}
	if after.Disk != nil {
		var b preexec.DiskStoreStats
		if before.Disk != nil {
			b = *before.Disk
		}
		a := *after.Disk
		t.disk.Saves += a.Saves - b.Saves
		t.disk.Loads += a.Loads - b.Loads
		t.disk.Misses += a.Misses - b.Misses
		t.disk.Quarantined += a.Quarantined - b.Quarantined
		t.disk.Evicted += a.Evicted - b.Evicted
		t.disk.SaveErrors += a.SaveErrors - b.SaveErrors
		t.disk.Bytes = a.Bytes
	}
}

// coldBuilds counts the checked stages' cold builds between two snapshots.
func coldBuilds(before, after preexec.StoreStats) int64 {
	var n int64
	for _, st := range checkedStages {
		n += after.Stages[st].Cold - before.Stages[st].Cold
	}
	return n
}

// labdProbe holds the daemon-layer measurements of a run.
type labdProbe struct {
	submitMS []float64 // POST /v1/sweep round trips
	queueMS  []float64 // submit to the first stream line
	lagging  int64     // lagging lines seen on any stream
	statsMS  float64   // GET /v1/stats at the end of the run
}

// addLayerMetrics appends every per-layer metric, in one fixed order, for
// any workload.
func addLayerMetrics(res *result, sp *spans, st *storeTotals, p probes, lp labdProbe, wall time.Duration) {
	busy, self := sp.split("")
	sp.mu.Lock()
	hooks := sp.hooks
	sp.mu.Unlock()
	for _, b := range buildStageMetric {
		res.addLayer(b.metric, "s", busy[b.stage].Seconds())
	}
	res.addLayer("critpath.ns_per_inst", "ns", float64(p.critTime.Nanoseconds())/float64(max(p.critInsts, 1)))
	res.addLayer("cpu.measure_s", "s", self.Seconds())
	res.addLayer("cpu.mcycles_per_s", "Mcycles/s", float64(p.simCycles)/1e6/p.simTime.Seconds())
	res.addLayer("trace.encode_ms", "ms", ms(p.encode))
	res.addLayer("trace.map_ms", "ms", ms(p.mapped))
	res.addLayer("trace.decode_ms", "ms", ms(p.decode))
	res.addLayer("pthsel.select_ms", "ms", ms(p.selection)/float64(max(p.selects, 1)))
	for _, stg := range preexec.Stages() {
		o := st.outcome[stg]
		if o == nil {
			o = new([4]int64)
		}
		for i, kind := range []string{"cold", "hit", "shared", "spill"} {
			res.addLayer("experiments."+string(stg)+"."+kind, "count", float64(o[i]))
		}
	}
	res.addLayer("experiments.reuse_ratio", "ratio", float64(st.hit)/float64(max(st.reqs, 1)))
	d := st.disk
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"saves", d.Saves}, {"loads", d.Loads}, {"misses", d.Misses}, {"quarantined", d.Quarantined},
		{"evicted", d.Evicted}, {"save_errors", d.SaveErrors},
	} {
		res.addLayer("artifactdisk."+c.name, "count", float64(c.v))
	}
	res.addLayer("artifactdisk.bytes", "MB", float64(d.Bytes)/1e6)
	res.addLayer("labd.submit_ms", "ms", median(lp.submitMS))
	res.addLayer("labd.queue_ms", "ms", median(lp.queueMS))
	res.addLayer("labd.lagging", "count", float64(lp.lagging))
	res.addLayer("labd.stats_ms", "ms", lp.statsMS)
	res.addLayer("bench.trace_overhead_pct", "%", 100*hooks.Seconds()/wall.Seconds())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
