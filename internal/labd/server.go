// Package labd implements the persistent lab daemon: one long-lived Lab
// engine — in-memory singleflight artifact store backed by the on-disk
// spill tier — behind an HTTP+JSON API (see internal/labapi for the wire
// types):
//
//	POST   /v1/sweep            submit a sweep grid; returns {"id": ...}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        one job
//	GET    /v1/jobs/{id}/events NDJSON event stream (replay + live)
//	GET    /v1/jobs/{id}/dag    the job's planned stage DAG (Graphviz DOT)
//	DELETE /v1/jobs/{id}        cancel a running job
//	GET    /v1/stats            jobs + artifact-store counters
//
// Because every job runs through one engine, concurrent submissions that
// overlap share in-flight builds (one trace, one baseline per unique
// fingerprint, whatever the client count), and the disk tier makes the
// sharing survive daemon restarts.
//
// Event streams fan out through per-client bounded queues: a client that
// cannot keep up has events dropped and is told so with a {"kind":
// "lagging", "dropped": N} line rather than ever back-pressuring the
// engine.
package labd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	preexec "repro"
	"repro/internal/labapi"
)

// Config parameterizes a daemon server.
type Config struct {
	// Dir is the disk store's root directory (required).
	Dir string
	// MaxStoreBytes is the disk store's byte budget (<= 0: unlimited).
	MaxStoreBytes int64
	// Parallelism bounds the engine's worker pool (<= 0: GOMAXPROCS).
	Parallelism int
	// Engine names the simulation engine for every job ("", "event" or
	// "scan"); unknown names are rejected by New with one error listing
	// the valid engines. Engine choice is the daemon operator's, not the
	// submitting client's, so every job shares the engine's cached
	// artifacts.
	Engine string
	// DisableMappedSpill turns off the zero-copy mmap path for warm trace
	// loads (cmd/labd's -mmap=false). The zero value keeps the default:
	// mapped spill on, falling back to heap decode where mmap is
	// unavailable. Results are identical either way.
	DisableMappedSpill bool
	// QueueLen is each event subscriber's bounded queue length
	// (<= 0: 1024). Tests shrink it to exercise the lagging path.
	QueueLen int
	// ReplayLen bounds each job's event replay buffer — the lines a late
	// subscriber receives before going live (<= 0: 8192). Older lines are
	// dropped and reported via a lagging line at stream start.
	ReplayLen int
}

// Server is the daemon: a shared Lab engine plus the job registry. Create
// with New, serve with (net/http).Server{Handler: srv}.
type Server struct {
	lab      *preexec.Lab
	mux      *http.ServeMux
	queueLen int
	replay   int

	// base is the parent of every job context; cancelling it (Close)
	// cancels all running jobs.
	base   context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
}

// job is one submitted sweep and its event history.
type job struct {
	id     string
	cancel context.CancelFunc
	// dag is the job's planned stage DAG in Graphviz DOT form, captured at
	// submission against the engine's stores as they stood then (empty when
	// planning failed; the run itself surfaces the error). Immutable after
	// handleSweep publishes the job.
	dag string

	mu       sync.Mutex
	state    labapi.JobState
	errMsg   string
	done     int
	total    int
	lines    []json.RawMessage // encoded StreamLines, replay for late subscribers
	lost     int64             // replay lines dropped to the buffer bound
	subs     map[*subscriber]struct{}
	finished bool // terminal: lines is complete, subs are closed
}

// subscriber is one client's bounded event queue. The publisher never
// blocks on it: when the queue is full the event is counted in dropped and
// discarded, and the streaming handler surfaces the count as a lagging
// line.
type subscriber struct {
	ch      chan json.RawMessage
	dropped atomic.Int64
}

// New creates a daemon server, opening (or creating) the disk store at
// cfg.Dir. The error is the disk store's: a daemon that cannot persist
// artifacts refuses to start rather than silently running uncached.
func New(cfg Config) (*Server, error) {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.ReplayLen <= 0 {
		cfg.ReplayLen = 8192
	}
	engine, err := preexec.ParseEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		mux:      http.NewServeMux(),
		queueLen: cfg.QueueLen,
		replay:   cfg.ReplayLen,
		base:     base,
		cancel:   cancel,
		jobs:     map[string]*job{},
	}
	labCfg := preexec.DefaultConfig()
	labCfg.CPU.Engine = engine
	s.lab = preexec.New(
		preexec.WithConfig(labCfg),
		preexec.WithParallelism(cfg.Parallelism),
		preexec.WithObserver(s.observe),
		preexec.WithDiskStore(cfg.Dir, cfg.MaxStoreBytes),
		preexec.WithMappedSpill(!cfg.DisableMappedSpill),
	)
	if err := s.lab.DiskStoreErr(); err != nil {
		cancel()
		return nil, err
	}
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/dag", s.handleDAG)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running job. In-flight streams terminate with their
// jobs; the HTTP server's own shutdown is the caller's.
func (s *Server) Close() { s.cancel() }

// ---------------------------------------------------------------- events --

// observe is the Lab's observer: it routes every engine event to the job
// named by its context tag. Events without a tag (none, once every entry
// point threads WithEventTag) are dropped.
func (s *Server) observe(ev preexec.Event) {
	if ev.Tag == "" {
		return
	}
	s.mu.Lock()
	j := s.jobs[ev.Tag]
	s.mu.Unlock()
	if j == nil {
		return
	}
	line := labapi.StreamLine{
		Kind:            string(ev.Kind),
		Bench:           ev.Bench,
		Input:           ev.Input,
		Stage:           ev.Stage,
		Target:          ev.Target,
		Point:           ev.Point,
		Done:            ev.Done,
		Total:           ev.Total,
		SimCyclesPerSec: ev.SimCyclesPerSec,
		DurationNS:      ev.DurationNS,
	}
	if ev.Err != nil {
		line.Err = ev.Err.Error()
	}
	if ev.Kind == preexec.EventPointDone {
		j.mu.Lock()
		j.done, j.total = ev.Done, ev.Total
		j.mu.Unlock()
	}
	j.publish(s.replay, line)
}

// publish appends one line to the job's replay buffer and fans it out to
// every subscriber, never blocking: a full queue counts a drop instead.
func (j *job) publish(replayLen int, line labapi.StreamLine) {
	raw, err := json.Marshal(line)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.lines = append(j.lines, raw)
	if len(j.lines) > replayLen {
		drop := len(j.lines) - replayLen
		j.lines = append([]json.RawMessage(nil), j.lines[drop:]...)
		j.lost += int64(drop)
	}
	//lab:allow(maprange: per-subscriber fan-out of one already-ordered line; every subscriber receives the same stream and cross-subscriber delivery order is unobservable)
	for sub := range j.subs {
		select {
		case sub.ch <- raw:
		default:
			sub.dropped.Add(1)
		}
	}
}

// finish publishes the job's terminal lines, marks it finished and closes
// every subscriber queue (after the final lines are enqueued, so a live
// client sees artifact then job-done then EOF).
func (j *job) finish(replayLen int, state labapi.JobState, errMsg string, final ...labapi.StreamLine) {
	for _, line := range final {
		j.publish(replayLen, line)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = errMsg
	j.finished = true
	//lab:allow(maprange: closing distinct subscriber queues commutes; no subscriber observes the order)
	for sub := range j.subs {
		close(sub.ch)
	}
	j.subs = nil
}

// subscribe atomically snapshots the replay buffer and registers a live
// queue, so the subscriber sees every line exactly once: the snapshot
// covers all lines published before registration, the queue all lines
// after. For finished jobs the returned subscriber is nil — the replay is
// the whole stream.
func (j *job) subscribe(queueLen int) (replay []json.RawMessage, lost int64, sub *subscriber) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay, lost = j.lines, j.lost
	if j.finished {
		return replay, lost, nil
	}
	sub = &subscriber{ch: make(chan json.RawMessage, queueLen)}
	j.subs[sub] = struct{}{}
	return replay, lost, sub
}

func (j *job) unsubscribe(sub *subscriber) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.finished {
		delete(j.subs, sub)
	}
}

func (j *job) snapshot() labapi.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return labapi.Job{ID: j.id, State: j.state, Error: j.errMsg, Done: j.done, Total: j.total}
}

// ------------------------------------------------------------- handlers --

// buildGrid turns a wire request into an engine grid, resolving axis,
// workload-spec and target names exactly as cmd/sweep does locally.
func buildGrid(req labapi.SweepRequest) (preexec.Grid, error) {
	var g preexec.Grid
	for _, name := range req.Axes {
		axis, err := preexec.ParseSweepAxis(strings.TrimSpace(name))
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
		tgt, err := preexec.ParseTarget(strings.TrimSpace(t))
		if err != nil {
			return g, err
		}
		g.Targets = append(g.Targets, tgt)
	}
	return g, nil
}

// maxSweepBody caps a POST /v1/sweep request body. A real grid request is a
// few hundred bytes; the cap only stops one client from making the daemon
// buffer an arbitrarily large body.
const maxSweepBody = 1 << 20

// maxSweepCells caps a request's (benchmarks + workloads) × grid points ×
// targets. The largest grid an in-repo client submits is all nine paper
// benchmarks over all three axes (27 points) under all five targets: 1,215
// cells. At 10,000 the cap is ~8× that; it only stops one request from
// registering thousands of generator specs or having the handler plan an
// enormous DAG synchronously.
const maxSweepCells = 10_000

// Every sensitivity axis has the paper's three points, and a request
// naming no targets gets the paper's three (L, E, P).
const (
	axisPoints     = 3
	defaultTargets = 3
)

// sweepCells counts a decoded request's cells, saturating just past
// maxSweepCells so an absurd axis list cannot overflow.
func sweepCells(req labapi.SweepRequest) int {
	targets := len(req.Targets)
	if targets == 0 {
		targets = defaultTargets
	}
	n := (len(req.Benchmarks) + len(req.Workloads)) * targets
	for range req.Axes {
		if n > maxSweepCells {
			break
		}
		n *= axisPoints
	}
	return n
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req labapi.SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	if sweepCells(req) > maxSweepCells {
		httpError(w, http.StatusBadRequest, fmt.Errorf("grid exceeds %d cells ((benchmarks + workloads) × points × targets)", maxSweepCells))
		return
	}
	grid, err := buildGrid(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(grid.Benchmarks) == 0 && len(grid.Workloads) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("request names no benchmarks or workloads"))
		return
	}

	ctx, cancel := context.WithCancel(s.base)
	j := &job{state: labapi.JobRunning, cancel: cancel, subs: map[*subscriber]struct{}{}}
	// Plan the job's stage DAG before it runs, so clients can inspect which
	// stages were projected cold, cached or disk-resident for the store
	// state this job was submitted against.
	// Best-effort: a grid that cannot be planned still runs (and fails)
	// through the normal path.
	if dag, err := s.lab.SweepDAG(grid); err == nil {
		j.dag = dag.DOT()
	}
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("j%d", s.nextID)
	s.jobs[j.id] = j
	s.mu.Unlock()

	go s.runSweep(ctx, j, grid)
	writeJSON(w, http.StatusAccepted, labapi.SubmitResponse{ID: j.id})
}

// runSweep executes one job on the shared engine and terminates its stream:
// artifact line then job-done on success, job-failed (or cancelled) with
// the error otherwise.
func (s *Server) runSweep(ctx context.Context, j *job, grid preexec.Grid) {
	defer j.cancel()
	rep, err := s.lab.Sweep(preexec.WithEventTag(ctx, j.id), grid)
	if err != nil {
		state := labapi.JobFailed
		if errors.Is(err, context.Canceled) {
			state = labapi.JobCancelled
		}
		j.finish(s.replay, state, err.Error(), labapi.StreamLine{Kind: labapi.KindJobFailed, Err: err.Error()})
		return
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		j.finish(s.replay, labapi.JobFailed, err.Error(), labapi.StreamLine{Kind: labapi.KindJobFailed, Err: err.Error()})
		return
	}
	j.finish(s.replay, labapi.JobDone, "",
		labapi.StreamLine{Artifact: "sweep", Report: raw},
		labapi.StreamLine{Kind: labapi.KindJobDone})
}

func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j
}

// snapshotJobs collects every job sorted by ID (j1, j2, ...: numeric suffix
// order), so listings and stats render identically regardless of the jobs
// map's iteration order.
func (s *Server) snapshotJobs() []*job {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		return len(jobs[a].id) < len(jobs[b].id) ||
			(len(jobs[a].id) == len(jobs[b].id) && jobs[a].id < jobs[b].id)
	})
	return jobs
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.snapshotJobs()
	out := make([]labapi.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobByID(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

// handleDAG serves the job's planned stage DAG as Graphviz DOT text — the
// plan captured at submission, not a live view of execution.
func (s *Server) handleDAG(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	if j.dag == "" {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %q has no planned DAG", j.id))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, j.dag)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.cancel()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := s.snapshotJobs()
	stats := labapi.Stats{Jobs: make([]labapi.Job, len(jobs)), Store: s.lab.StoreStats()}
	for i, j := range jobs {
		stats.Jobs[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleEvents streams a job's events as NDJSON: the replay buffer first
// (prefixed by a lagging line when the buffer overflowed before this
// client arrived), then live events until the job finishes or the client
// disconnects. Every line is flushed immediately — clients render progress
// in real time.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	replay, lost, sub := j.subscribe(s.queueLen)
	if sub != nil {
		defer j.unsubscribe(sub)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeLine := func(raw json.RawMessage) bool {
		if _, err := w.Write(append(raw, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	marshalLine := func(line labapi.StreamLine) json.RawMessage {
		raw, _ := json.Marshal(line)
		return raw
	}

	if lost > 0 {
		if !writeLine(marshalLine(labapi.StreamLine{Kind: labapi.KindLagging, Dropped: lost})) {
			return
		}
	}
	for _, raw := range replay {
		if !writeLine(raw) {
			return
		}
	}
	if sub == nil {
		return // finished job: the replay was the whole stream
	}
	for {
		// Surface queue overflow as soon as it is observed, so the gap is
		// marked in-stream where it happened.
		if n := sub.dropped.Swap(0); n > 0 {
			if !writeLine(marshalLine(labapi.StreamLine{Kind: labapi.KindLagging, Dropped: n})) {
				return
			}
		}
		select {
		case raw, ok := <-sub.ch:
			if !ok {
				// Queue closed with drops pending means the tail of the
				// stream (possibly the artifact line) was lost; mark the
				// gap so the client knows to re-fetch the finished job.
				if n := sub.dropped.Swap(0); n > 0 {
					writeLine(marshalLine(labapi.StreamLine{Kind: labapi.KindLagging, Dropped: n}))
				}
				return
			}
			if !writeLine(raw) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// ---------------------------------------------------------------- helpers --

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
