package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	preexec "repro"
	"repro/internal/labapi"
	"repro/internal/labd"
	"repro/internal/program/gen"
)

// daemon is one in-process labd server listening on a loopback port.
type daemon struct {
	srv  *labd.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when the serve loop has returned
}

// startDaemon opens a daemon over a store directory and starts serving.
func startDaemon(dir string) (*daemon, error) {
	srv, err := labd.New(labd.Config{Dir: dir, Parallelism: workers})
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop cancels the daemon's jobs, closes its listener and connections and
// waits for the serve loop to return. The Server value stays valid, so a
// caller still holding the daemon keeps its memory reachable.
func (d *daemon) stop() {
	d.srv.Close()
	d.hs.Close()
	<-d.done
}

// setupOver starts setupRepeats daemons in turn over a filled store
// directory, timing each from start to its first answered stats request —
// opening the store indexes every spilled artifact — and returns the median.
func setupOver(ctx context.Context, dir string) (float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		d, err := startDaemon(dir)
		if err != nil {
			return 0, err
		}
		_, err = d.stats(ctx)
		times = append(times, time.Since(t0).Seconds())
		d.stop()
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}}

// jobRequest is one sweep job a client submits; key names it in the
// reference digests.
type jobRequest struct {
	key string
	req labapi.SweepRequest
}

// jobOutcome is what one client saw of one job.
type jobOutcome struct {
	key      string
	tag      string
	latMS    float64 // submit to the job-done line
	submitMS float64 // the POST round trip
	queueMS  float64 // submit to the first stream line
	report   []byte  // the artifact line's report
	cold     int     // cold builds of the checked stages, from the stream
	lagging  int64
	err      error
}

var checkedStageName = func() map[string]bool {
	m := map[string]bool{}
	for _, st := range checkedStages {
		m[string(st)] = true
	}
	return m
}()

// jobSeq makes span tags unique across the daemons of one run, which all
// number their jobs from j1.
var jobSeq atomic.Int64

// phases are the daemon workloads' phase names, the prefixes of their
// span tags.
var phases = []string{"cold", "restart", "repeat"}

// finished counts the jobs that completed without error.
func finished(jobs []jobOutcome) int {
	n := 0
	for _, j := range jobs {
		if j.err == nil {
			n++
		}
	}
	return n
}

// runJob submits one job and follows its NDJSON stream to the end.
func runJob(ctx context.Context, d *daemon, phase string, jr jobRequest, sp *spans, traced bool) jobOutcome {
	out := jobOutcome{key: jr.key}
	body, err := json.Marshal(jr.req)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	var sub labapi.SubmitResponse
	if out.err = doJSON(ctx, http.MethodPost, d.base+"/v1/sweep", body, http.StatusAccepted, &sub); out.err != nil {
		return out
	}
	out.submitMS = ms(time.Since(t0))
	out.tag = fmt.Sprintf("%s/%d/%s", phase, jobSeq.Add(1), sub.ID)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		out.err = err
		return out
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for first := true; ; first = false {
		raw, err := rd.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(raw)) == 0 {
			if err == nil {
				continue
			}
			if errors.Is(err, io.EOF) {
				err = errors.New("stream ended before job-done")
			}
			out.err = err
			return out
		}
		if first {
			out.queueMS = ms(now.Sub(t0))
		}
		var line labapi.StreamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			out.err = fmt.Errorf("stream line: %w", err)
			return out
		}
		switch line.Kind {
		case string(preexec.EventStageStart):
			if checkedStageName[line.Stage] {
				out.cold++
			}
		case string(preexec.EventStageDone):
			if traced {
				sp.stageDone(out.tag, line.Stage, line.DurationNS, now)
			}
		case labapi.KindLagging:
			out.lagging += line.Dropped
		case labapi.KindJobFailed:
			out.err = fmt.Errorf("job failed: %s", line.Err)
			return out
		case labapi.KindJobDone:
			out.latMS = ms(now.Sub(t0))
			if traced {
				sp.parent(out.tag, interval{t0, now})
			}
			if out.report == nil {
				out.err = errors.New("job-done without an artifact line")
			}
			return out
		case "":
			if line.Artifact != "" {
				out.report = line.Report
			}
		}
	}
}

// doJSON makes one request and decodes a JSON reply with the wanted status.
func doJSON(ctx context.Context, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) stats(ctx context.Context) (preexec.StoreStats, error) {
	var st labapi.Stats
	err := doJSON(ctx, http.MethodGet, d.base+"/v1/stats", nil, http.StatusOK, &st)
	return st.Store, err
}

// timeStats is the median of three timed GET /v1/stats requests, in ms.
func (d *daemon) timeStats(ctx context.Context) (float64, error) {
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := d.stats(ctx); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// phaseResult is one closed-loop phase: its jobs in completion order and
// its wall time.
type phaseResult struct {
	jobs []jobOutcome
	wall time.Duration
}

// closedLoop runs jobs on `workers` clients; each client submits its next
// job only after its previous one finished. Jobs come in rounds of the
// whole set — each round a fresh permutation drawn from rng, or the set's
// own order when rng is nil — and the loop stops issuing at the first round
// boundary after minDur, so every run covers each job equally often.
func closedLoop(ctx context.Context, d *daemon, phase string, set []jobRequest, rng *rand.Rand,
	minDur time.Duration, sp *spans, traced bool) phaseResult {
	var mu sync.Mutex
	var out phaseResult
	var order []int
	issued := 0
	start := time.Now()
	next := func() (jobRequest, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil || (issued > 0 && issued%len(set) == 0 && time.Since(start) >= minDur) {
			return jobRequest{}, false
		}
		i := issued % len(set)
		if i == 0 && rng != nil {
			order = rng.Perm(len(set))
		}
		if order != nil {
			i = order[i]
		}
		jr := set[i]
		issued++
		return jr, true
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				jr, ok := next()
				if !ok {
					return
				}
				o := runJob(ctx, d, phase, jr, sp, traced)
				mu.Lock()
				out.jobs = append(out.jobs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// daemonRun accumulates the checks and measurements shared by the daemon
// workloads.
type daemonRun struct {
	o     options
	res   *result
	sp    *spans
	store *storeTotals
	lp    labdProbe
	wall  time.Duration // sum of the measured phases
}

func newDaemonRun(o options) *daemonRun {
	return &daemonRun{o: o, res: &result{}, sp: newSpans(), store: newStoreTotals()}
}

// phase runs one closed-loop phase on d and checks every job: it must
// finish, its report must match the reference digest, and on a warm phase
// it must build no checked stage cold — neither in its own stream nor in
// the daemon's store counters over the phase.
func (r *daemonRun) phase(ctx context.Context, d *daemon, name string, set []jobRequest, rng *rand.Rand,
	minDur time.Duration, warm bool) (phaseResult, error) {
	before, err := d.stats(ctx)
	if err != nil {
		return phaseResult{}, err
	}
	pr := closedLoop(ctx, d, name, set, rng, minDur, r.sp, r.o.traced)
	if err := ctx.Err(); err != nil {
		return pr, err
	}
	after, err := d.stats(ctx)
	if err != nil {
		return pr, err
	}
	r.store.add(before, after)
	r.wall += pr.wall
	streamCold := 0
	for _, j := range pr.jobs {
		r.res.attempted++
		r.lp.submitMS = append(r.lp.submitMS, j.submitMS)
		r.lp.queueMS = append(r.lp.queueMS, j.queueMS)
		r.lp.lagging += j.lagging
		if j.err != nil {
			r.res.fail("%s %s: %v", name, j.key, j.err)
			continue
		}
		streamCold += j.cold
		if warm && j.cold > 0 {
			r.res.fail("%s %s: built %d checked stages cold on a warm daemon (want 0)", name, j.key, j.cold)
			continue
		}
		got, err := digestJSON(j.report)
		if err != nil {
			r.res.fail("%s %s: %v", name, j.key, err)
			continue
		}
		if want := r.o.refs.Jobs[j.key]; got != want {
			r.res.fail("%s %s: report digest %.12s, reference %.12s", name, j.key, got, want)
		}
	}
	if n := coldBuilds(before, after); warm && n > int64(streamCold) {
		r.res.fail("%s: daemon built %d checked stages cold that no job stream reported", name, n-int64(streamCold))
	}
	return pr, nil
}

// finish measures the live heap with the given daemons still referenced,
// adds the job metrics, and in a traced run probes the layers on the
// workload's own inputs.
func (r *daemonRun) finish(ctx context.Context, setup, cold, restart float64, jobs []jobOutcome,
	jobsPerS float64, probeDir string, probeNames []string, keep ...*daemon) error {
	heap := liveHeapMB()
	runtime.KeepAlive(keep)
	var lat []float64
	for _, j := range jobs {
		if j.err == nil {
			lat = append(lat, j.latMS)
		}
	}
	tl := tailOf(lat)
	r.res.notef("job_tail_ms is %s", tl)
	r.res.addE2E("setup_s", "s", setup)
	r.res.addE2E("cold_s", "s", cold)
	r.res.addE2E("restart_s", "s", restart)
	r.res.addE2E("job_p50_ms", "ms", median(lat))
	r.res.addE2E("job_tail_ms", "ms", tl.Value)
	r.res.addE2E("jobs_per_s", "1/s", jobsPerS)
	r.res.addE2E("live_heap_mb", "MB", heap)
	if !r.o.traced {
		return nil
	}
	var err error
	if r.lp.statsMS, err = keep[len(keep)-1].timeStats(ctx); err != nil {
		return err
	}
	p, err := probeLayers(ctx, probeDir, probeNames)
	if err != nil {
		return err
	}
	for _, phase := range phases {
		noteSplit(r.res, r.sp, phase)
	}
	addLayerMetrics(r.res, r.sp, r.store, p, r.lp, r.wall)
	return nil
}

// probeDaemon measures the daemon layer for a workload that does not run
// through labd: one Figure-5-shaped job on a daemon over the workload's
// filled store directory.
func probeDaemon(ctx context.Context, dir string) (labdProbe, error) {
	var lp labdProbe
	d, err := startDaemon(dir)
	if err != nil {
		return lp, err
	}
	defer d.stop()
	jr := repeatGrids()[0]
	o := runJob(ctx, d, "probe", jr, nil, false)
	if o.err != nil {
		return lp, fmt.Errorf("daemon probe: %w", o.err)
	}
	lp.submitMS, lp.queueMS, lp.lagging = []float64{o.submitMS}, []float64{o.queueMS}, o.lagging
	lp.statsMS, err = d.timeStats(ctx)
	return lp, err
}

// repeatGrids is daemon-repeat's fixed job set: one Figure-5-shaped sweep
// per (axis, benchmark) pair of the paper's Figure 5, each over one axis
// and one benchmark with the L, E and P targets.
func repeatGrids() []jobRequest {
	var set []jobRequest
	for _, axis := range []struct {
		name string
		axis preexec.SweepAxis
	}{{"idle", preexec.SweepIdleFactor}, {"mem", preexec.SweepMemLatency}, {"l2", preexec.SweepL2Size}} {
		for _, b := range preexec.Figure5Benchmarks(axis.axis) {
			set = append(set, jobRequest{
				key: "repeat/" + axis.name + "/" + b,
				req: labapi.SweepRequest{Axes: []string{axis.name}, Benchmarks: []string{b}, Targets: []string{"L", "E", "P"}},
			})
		}
	}
	return set
}

func repeatBenchmarks() []string {
	seen := map[string]bool{}
	var names []string
	for _, jr := range repeatGrids() {
		for _, b := range jr.req.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	return names
}

// repeatCycles is how many times daemon-repeat primes a fresh directory
// (cold) and restarts over it (restart); cold_s and restart_s are the
// medians.
const repeatCycles = 3

// runDaemonRepeat runs repeatCycles cycles, each priming a fresh daemon
// over a fresh directory with the job set (cold) and then running the set
// once more on a fresh daemon over the filled directory (restart). Then two
// closed-loop clients keep submitting the set's jobs to the last daemon
// for the run's duration. Every stage is cached after the cold phase, so
// job latency is measurement simulation plus daemon and scheduling
// overhead.
func runDaemonRepeat(ctx context.Context, o options) (*result, error) {
	r := newDaemonRun(o)
	set := repeatGrids()
	var colds, restarts []float64
	var setup float64
	var dir string
	var warm *daemon
	for cycle := 0; cycle < repeatCycles; cycle++ {
		if warm != nil {
			warm.stop()
		}
		dir = filepath.Join(o.dir, fmt.Sprintf("cycle%d", cycle))
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		cold, err := r.phase(ctx, d, "cold", set, nil, 0, false)
		d.stop()
		if err != nil {
			return nil, err
		}
		colds = append(colds, cold.wall.Seconds())
		if cycle == 0 {
			if setup, err = setupOver(ctx, dir); err != nil {
				return nil, err
			}
		}

		t0 := time.Now()
		if warm, err = startDaemon(dir); err != nil {
			return nil, err
		}
		_, err = r.phase(ctx, warm, "restart", set, nil, 0, true)
		restarts = append(restarts, time.Since(t0).Seconds())
		if err != nil {
			warm.stop()
			return nil, err
		}
	}
	defer warm.stop()

	rng := rand.New(rand.NewSource(o.seed))
	loop, err := r.phase(ctx, warm, "repeat", set, rng, time.Duration(o.seconds*float64(time.Second)), true)
	if err != nil {
		return nil, err
	}
	if err := r.finish(ctx, setup, median(colds), median(restarts), loop.jobs,
		float64(finished(loop.jobs))/loop.wall.Seconds(), dir, repeatBenchmarks(), warm); err != nil {
		return nil, err
	}
	return r.res, nil
}

// novelPerFamily is how many generator specs of each family one
// daemon-novel cycle submits; novelPool is the seed range they are drawn
// from.
const (
	novelPerFamily = 3
	novelPool      = 24
)

// novelSpecs draws daemon-novel's job set from the workload seed alone:
// for every generator family, novelPerFamily distinct seeds out of
// 1..novelPool, each job a default-knob spec measured under L and P.
func novelSpecs(seed int64) []jobRequest {
	rng := rand.New(rand.NewSource(seed))
	var set []jobRequest
	for _, fam := range preexec.WorkloadFamilies() {
		for _, i := range rng.Perm(novelPool)[:novelPerFamily] {
			set = append(set, novelJob(fmt.Sprintf("%s:%d", fam, i+1)))
		}
	}
	return set
}

func novelJob(spec string) jobRequest {
	return jobRequest{
		key: "novel/" + spec,
		req: labapi.SweepRequest{Workloads: []string{spec}, Targets: []string{"L", "P"}},
	}
}

// runDaemonNovel repeats a cycle until the run's duration is spent: a
// fresh daemon over an empty directory runs the seed's novel-spec job set
// on two closed-loop clients (cold: every job builds trace, profile,
// problems, slices, curves and baseline and spills them), then a fresh
// daemon over that directory runs the set again (restart). Each cycle's
// daemons and directory are new, so every cycle does identical work.
// cold_s, restart_s and jobs_per_s are medians over the cycles.
func runDaemonNovel(ctx context.Context, o options) (*result, error) {
	r := newDaemonRun(o)
	dir := filepath.Join(o.dir, "cycle0")
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	set := novelSpecs(o.seed)
	var colds, restarts, rates []float64
	var setup float64
	var jobs []jobOutcome
	var warm *daemon
	start := time.Now()
	for cycle := 1; ; cycle++ {
		cold, err := r.phase(ctx, d, "cold", set, nil, 0, false)
		d.stop()
		if err != nil {
			return nil, err
		}
		colds = append(colds, cold.wall.Seconds())
		rates = append(rates, float64(finished(cold.jobs))/cold.wall.Seconds())
		jobs = append(jobs, cold.jobs...)
		if cycle == 1 {
			if setup, err = setupOver(ctx, dir); err != nil {
				return nil, err
			}
		}

		t0 := time.Now()
		if warm, err = startDaemon(dir); err != nil {
			return nil, err
		}
		_, err = r.phase(ctx, warm, "restart", set, nil, 0, true)
		restarts = append(restarts, time.Since(t0).Seconds())
		if err != nil {
			warm.stop()
			return nil, err
		}
		if time.Since(start).Seconds() >= o.seconds {
			break
		}
		// The filled directory stays until the run ends: deleting it here
		// would put the file system's deferred work (journal commits and,
		// on a discard mount, block discards) inside the next cold phase.
		warm.stop()
		dir = filepath.Join(o.dir, fmt.Sprintf("cycle%d", cycle))
		if d, err = startDaemon(dir); err != nil {
			return nil, err
		}
	}
	defer warm.stop()
	// Probe one spec of each family: the set lists novelPerFamily per family.
	var probe []preexec.WorkloadSpec
	for i := 0; i < len(set); i += novelPerFamily {
		spec, err := preexec.ParseWorkloadSpec(set[i].req.Workloads[0])
		if err != nil {
			return nil, err
		}
		probe = append(probe, spec)
	}
	names, err := gen.Register(probe...)
	if err != nil {
		return nil, err
	}
	if err := r.finish(ctx, setup, median(colds), median(restarts), jobs, median(rates),
		dir, names, d, warm); err != nil {
		return nil, err
	}
	return r.res, nil
}
