package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one tracked submission.
type Job struct {
	ID       string
	Spec     JobSpec // normalized
	Hash     string
	State    JobState
	Cached   bool // result served without an engine execution
	Err      string
	Created  time.Time
	Started  time.Time
	Finished time.Time

	result []byte
	cancel context.CancelFunc
	events *EventLog

	// repsDone/repsTotal mirror the executor's OnRep progress for the
	// status endpoint; the SSE stream carries the same numbers live.
	repsDone, repsTotal int
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	SpecHash string   `json:"spec_hash"`
	Cached   bool     `json:"cached"`
	Error    string   `json:"error,omitempty"`
	// RepsDone/RepsTotal report rep-level progress of a running job (0/0
	// until the first rep completes; sub-job aware fleet clients aggregate
	// them across shards).
	RepsDone  int `json:"reps_done,omitempty"`
	RepsTotal int `json:"reps_total,omitempty"`
	// SubJobs is a fleet coordinator's per-slice detail (never set by a
	// single daemon).
	SubJobs []SubStatus `json:"sub_jobs,omitempty"`
}

// SubStatus is the wire status of one fleet sub-job slice.
type SubStatus struct {
	Offset  int      `json:"offset"`
	Reps    int      `json:"reps"`
	Hash    string   `json:"hash"`
	Node    string   `json:"node,omitempty"`
	JobID   string   `json:"job_id,omitempty"`
	State   JobState `json:"state,omitempty"`
	Cached  bool     `json:"cached,omitempty"`
	Retries int      `json:"retries,omitempty"`
}

// Config parameterizes a Server.
type Config struct {
	// CacheDir roots the on-disk result store ("" = memory-only cache).
	CacheDir string
	// MemEntries bounds the in-memory cache tier (default 256).
	MemEntries int
	// QueueSize bounds the pending-job queue (default 64).
	QueueSize int
	// Workers is the number of jobs executed concurrently (default 1:
	// each job already fans its reps over the executor's pool).
	Workers int
	// Parallelism is the per-job executor pool size (0 = executor
	// default: REPRO_PARALLEL or GOMAXPROCS).
	Parallelism int
	// JobTimeout bounds one job's execution (default 10 minutes).
	JobTimeout time.Duration
	// MaxReps rejects specs with more repetitions (default 100000).
	MaxReps int
	// FlightRing is the per-rep flight-recorder ring size (0 = the obs
	// package default). The ring is always armed: when a rep fails, its
	// last scheduling events are retained for GET /debug/flightrecorder.
	FlightRing int
	// EventKeep bounds each job's SSE event ring (0 = DefaultEventKeep).
	// Reconnecting clients whose Last-Event-ID fell off the ring are
	// re-synchronized with a progress snapshot instead of a replay.
	EventKeep int
}

func (c Config) withDefaults() Config {
	if c.MemEntries <= 0 {
		c.MemEntries = 256
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 100000
	}
	return c
}

// flightKeep bounds how many flight dumps the server retains for
// /debug/flightrecorder (newest win).
const flightKeep = 16

// flightLog retains the most recent flight-recorder dumps from failed reps.
type flightLog struct {
	mu    sync.Mutex
	dumps []obs.Flight
}

func (l *flightLog) add(f obs.Flight) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dumps = append(l.dumps, f)
	if n := len(l.dumps); n > flightKeep {
		l.dumps = append(l.dumps[:0], l.dumps[n-flightKeep:]...)
	}
}

func (l *flightLog) list() []obs.Flight {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Non-nil even when empty so the debug endpoint serves [] rather
	// than null.
	return append([]obs.Flight{}, l.dumps...)
}

// Server owns the job queue, the worker pool, and the result cache. Create
// with New, serve its Handler, and stop with Drain (graceful) or Close.
type Server struct {
	cfg   Config
	cache *rescache.Cache
	met   *metrics
	// runReg accumulates the simulation kernel's counters across every job
	// execution (repro_* families); rendered after the service families on
	// /metrics.
	runReg  *obs.Registry
	flights *flightLog

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	nextID   uint64
	queue    chan *Job
	draining bool

	workers sync.WaitGroup

	// testHookJobUpdate, when non-nil, is called after every job state
	// transition, with the server mutex held so calls arrive in transition
	// order; it must not call into the server. Tests use it to wait on
	// state changes without wall-clock polling. Set it before submitting.
	testHookJobUpdate func(id string, state JobState)
}

// New builds a Server and starts its workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := rescache.New(cfg.CacheDir, cfg.MemEntries)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg, cache: cache, met: newMetrics(nil),
		runReg: obs.NewRegistry(), flights: &flightLog{},
		baseCtx: ctx, baseCancel: cancel,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueSize),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s, nil
}

// Metrics returns a snapshot of the service and cache counters.
func (s *Server) Metrics() Snapshot {
	return s.met.snapshot(len(s.queue), s.cache.Stats())
}

// notify publishes a job state transition to the job's event stream and
// the test hook. Call it with the server mutex held, in the hold that made
// the transition: a worker then cannot announce "running" before Submit has
// announced "queued". The stream is published first so a hook-driven
// waiter observes the event on wake-up.
func (s *Server) notify(j *Job, state JobState) {
	j.events.PublishState(state)
	if s.testHookJobUpdate != nil {
		s.testHookJobUpdate(j.ID, state)
	}
}

var (
	errDraining  = Unavailable("service: draining, not accepting jobs")
	errQueueFull = Unavailable("service: job queue full")
)

// Submit validates, normalizes and enqueues a spec. When the result is
// already cached the job is done at submit time: the stored bytes are
// attached without re-execution.
//
// The job enters the table only in its settled first state, under one lock
// hold: done on a cache hit, otherwise queued with its queue slot taken.
// A concurrent Cancel therefore either misses the job or sees that state.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	spec.Normalize()
	if err := spec.Validate(s.cfg.MaxReps); err != nil {
		return JobStatus{}, err
	}
	hash, err := SpecHash(&spec)
	if err != nil {
		return JobStatus{}, err
	}
	data, hit := s.cache.Get(hash)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejected.Inc()
		return JobStatus{}, errDraining
	}
	s.nextID++
	now := time.Now()
	job := &Job{
		ID:      fmt.Sprintf("j%06d", s.nextID),
		Spec:    spec,
		Hash:    hash,
		State:   StateQueued,
		Created: now,
		events:  NewEventLog(s.cfg.EventKeep),
	}
	if hit {
		job.State, job.Cached, job.result = StateDone, true, data
		job.Started, job.Finished = now, now
	} else {
		// Drain closes the queue under s.mu after setting draining, so the
		// send cannot hit a closed channel.
		select {
		case s.queue <- job:
		default:
			s.mu.Unlock()
			s.met.submitted.Inc()
			s.met.rejected.Inc()
			return JobStatus{}, errQueueFull
		}
	}
	s.jobs[job.ID] = job
	s.met.submitted.Inc()
	if hit {
		s.met.jobStarted()
		s.met.jobFinished(StateDone, true, 0)
	}
	s.notify(job, job.State)
	st := job.status()
	s.mu.Unlock()
	return st, nil
}

// Job returns a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns the wire status of a job.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// status is the job's wire status. Caller holds the server mutex.
func (j *Job) status() JobStatus {
	return JobStatus{
		ID: j.ID, State: j.State, SpecHash: j.Hash, Cached: j.Cached, Error: j.Err,
		RepsDone: j.repsDone, RepsTotal: j.repsTotal,
	}
}

// Events returns the job's SSE event log.
func (s *Server) Events(id string) (*EventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.events, true
}

// Result returns the payload bytes of a finished job.
func (s *Server) Result(id string) ([]byte, JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.result, j.State, true
}

// Timeline returns a stored Chrome-trace timeline of a job: its own for
// source "", else one noise source's evidence timeline of an analysis job.
// found reports whether the job exists; data is nil when the job is not
// done yet or never recorded that timeline (spec without "timeline": true).
func (s *Server) Timeline(id, source string) (data []byte, state JobState, found bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, "", false
	}
	state, hash := j.State, j.Hash
	s.mu.Unlock()
	if state != StateDone {
		return nil, state, true
	}
	data, _ = s.cache.Get(TimelineKey(hash, source))
	return data, state, true
}

// TimelineKey is the cache key of a job's stored timeline: the job's own
// for source "", else that noise source's evidence timeline.
func TimelineKey(hash, source string) string {
	if source == "" {
		return rescache.DerivedKey(hash, "tl")
	}
	return rescache.DerivedKey(hash, "tl-"+source)
}

// FlightDumps returns the retained flight-recorder dumps of failed reps,
// oldest first.
func (s *Server) FlightDumps() []obs.Flight { return s.flights.list() }

// Cancel cancels a queued or running job. Canceling a terminal job is a
// no-op; the returned state is the job's state after the call.
func (s *Server) Cancel(id string) (JobState, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return "", false
	}
	var cancel context.CancelFunc
	switch j.State {
	case StateQueued:
		j.State = StateCanceled
		j.Finished = time.Now()
		s.met.canceled.Inc()
		s.notify(j, StateCanceled)
	case StateRunning:
		cancel = j.cancel
	}
	state := j.State
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return state, true
}

// runJob executes one dequeued job through the cache.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	s.mu.Lock()
	if job.State != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.Started = time.Now()
	job.cancel = cancel
	job.repsTotal = job.Spec.TotalReps()
	s.met.jobStarted()
	s.notify(job, StateRunning)
	s.mu.Unlock()

	data, hit, err := s.cache.GetOrCompute(ctx, job.Hash, func(ctx context.Context) ([]byte, error) {
		s.met.executions.Inc()
		return s.execute(ctx, job)
	})

	now := time.Now()
	s.mu.Lock()
	job.Finished = now
	switch {
	case err == nil:
		job.State = StateDone
		job.Cached = hit
		job.result = data
	case errors.Is(err, context.Canceled):
		job.State = StateCanceled
		job.Err = "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		job.State = StateFailed
		job.Err = fmt.Sprintf("timed out after %v", s.cfg.JobTimeout)
	default:
		job.State = StateFailed
		job.Err = err.Error()
	}
	s.met.jobFinished(job.State, job.Cached, job.Finished.Sub(job.Started).Seconds())
	s.notify(job, job.State)
	s.mu.Unlock()
}

// execute runs the series on the engine and encodes the result payload.
func (s *Server) execute(ctx context.Context, job *Job) ([]byte, error) {
	// Observability is always armed: the recorder is passive (results stay
	// byte-identical), the flight ring captures the last scheduling events of
	// any failing rep, and the kernel counters accumulate on the server
	// registry. The full timeline is recorded only when the spec asks.
	var timeline bytes.Buffer
	exec := experiment.Executor{Parallelism: s.cfg.Parallelism, Obs: &experiment.ObsOptions{
		Timeline: job.Spec.Timeline,
		Ring:     s.cfg.FlightRing,
		Reg:      s.runReg,
		OnFlight: s.flights.add,
		OnTimeline: func(rec *obs.Recorder) {
			_ = rec.WriteChromeJSON(&timeline)
		},
	}}
	// Rep completions feed the job's SSE stream and status fields. OnRep
	// calls are serialized and monotone, so the stream inherits both.
	exec.OnRep = func(done, total int) {
		s.mu.Lock()
		job.repsDone, job.repsTotal = done, total
		s.mu.Unlock()
		job.events.PublishProgress(done, total)
	}
	if job.Spec.Analyze != nil {
		return s.executeAnalysis(ctx, job, exec)
	}
	if job.Spec.Cluster != nil {
		return s.executeCluster(ctx, job, exec, &timeline)
	}
	spec, err := job.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	times, traces, err := exec.Series(ctx, spec, job.Spec.Reps)
	if err != nil {
		return nil, err
	}
	if err := s.storeTimeline(job, &timeline); err != nil {
		return nil, err
	}
	return BuildResult(job.Hash, job.Spec, times, traces)
}

// BuildResult encodes the canonical result payload of a kernel series: the
// exact bytes the cache stores and /result serves. It is exported so the
// fleet merger reassembles sub-job slices through the same encoder — merge
// equality with a single-node run then holds by construction rather than by
// convention.
func BuildResult(hash string, spec JobSpec, times []sim.Time, traces []*trace.Trace) ([]byte, error) {
	res := JobResult{
		SpecHash:     hash,
		ModelVersion: experiment.ModelVersion,
		Spec:         spec,
		TimesNs:      make([]int64, len(times)),
		Summary:      stats.SummarizeTimes(times),
	}
	for i, t := range times {
		res.TimesNs[i] = int64(t)
	}
	if spec.Tracing {
		res.Traces = traces
	}
	return json.Marshal(res)
}

// BuildClusterResult is BuildResult for cluster jobs: TimesNs carries the
// per-rep batch completion times and the summary is computed over them in
// milliseconds, exactly as a single-node execution encodes it.
func BuildClusterResult(hash string, spec JobSpec, results []*cluster.Result) ([]byte, error) {
	res := JobResult{
		SpecHash:     hash,
		ModelVersion: experiment.ModelVersion,
		Spec:         spec,
		TimesNs:      make([]int64, len(results)),
		Cluster:      results,
	}
	batches := make([]float64, len(results))
	for i, r := range results {
		res.TimesNs[i] = r.BatchNs
		batches[i] = float64(r.BatchNs) / 1e6
	}
	res.Summary = stats.Summarize(batches)
	return json.Marshal(res)
}

// executeAnalysis runs a bottleneck-analysis job: the full differential
// sweep through analyze.Run, with the artifact bytes as the cached result
// payload. Evidence timelines land as derived cache entries — one per
// source under TimelineKey(hash, source), plus the bottleneck source's copy
// under TimelineKey(hash, "") so GET .../timeline serves the headline
// evidence exactly like a single-node job's. analyze.Run forces its own per-cell timeline
// recording, so the executor's OnTimeline buffer stays untouched here.
func (s *Server) executeAnalysis(ctx context.Context, job *Job, exec experiment.Executor) ([]byte, error) {
	out, err := analyze.Run(ctx, exec, *job.Spec.Analyze)
	if err != nil {
		return nil, err
	}
	for src, tl := range out.Timelines {
		if err := s.cache.Put(TimelineKey(job.Hash, src), tl); err != nil {
			return nil, fmt.Errorf("service: storing %s timeline: %w", src, err)
		}
	}
	if tl, ok := out.Timelines[out.Artifact.Bottleneck]; ok {
		if err := s.cache.Put(TimelineKey(job.Hash, ""), tl); err != nil {
			return nil, fmt.Errorf("service: storing timeline: %w", err)
		}
	}
	return out.Artifact.Encode()
}

// executeCluster runs a cluster job: Reps runs of the embedded scenario,
// each a pure function of (spec, derived seed). TimesNs carries the per-rep
// batch completion times so cluster results flow through the same summary
// and cache machinery as single-node series.
func (s *Server) executeCluster(ctx context.Context, job *Job, exec experiment.Executor, timeline *bytes.Buffer) ([]byte, error) {
	results, err := exec.ClusterSeries(ctx, *job.Spec.Cluster, job.Spec.Seed, job.Spec.Reps)
	if err != nil {
		return nil, err
	}
	if err := s.storeTimeline(job, timeline); err != nil {
		return nil, err
	}
	return BuildClusterResult(job.Hash, job.Spec, results)
}

// storeTimeline persists a recorded timeline as a derived cache entry next
// to the result: a later cache hit for this spec can still serve it.
func (s *Server) storeTimeline(job *Job, timeline *bytes.Buffer) error {
	if timeline.Len() == 0 {
		return nil
	}
	if err := s.cache.Put(TimelineKey(job.Hash, ""), timeline.Bytes()); err != nil {
		return fmt.Errorf("service: storing timeline: %w", err)
	}
	return nil
}

// Drain stops accepting submissions and waits for queued and running jobs
// to finish. When ctx expires first, running jobs are canceled and the
// drain still waits for workers to observe the cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	if already {
		return errors.New("service: already draining")
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // force-cancel in-flight jobs
		<-done
		return ctx.Err()
	}
}

// Close force-stops the server: cancels every running job and waits for
// the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()
	s.workers.Wait()
}
