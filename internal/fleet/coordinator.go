package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/analyze"
	"repro/internal/rescache"
	"repro/internal/service"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Backends are the noiselabd base URLs forming the consistent-hash ring.
	Backends []string
	// Replicas is the per-backend vnode count (0 = DefaultReplicas).
	Replicas int
	// SubJobs is the fan-out width: how many sub-jobs a fleet job splits
	// into (0 = one per backend). Clamped to the job's rep count.
	SubJobs int
	// MemEntries bounds the coordinator's merged-result cache (default 256).
	MemEntries int
	// JobTimeout bounds one fleet job end to end (default 10 minutes).
	JobTimeout time.Duration
	// MaxReps rejects specs with more repetitions (default 100000).
	MaxReps int
	// EventKeep bounds each fleet job's SSE event ring (0 = service default).
	EventKeep int
	// Client is the HTTP client used for backend calls (nil = default).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.SubJobs <= 0 {
		c.SubJobs = len(c.Backends)
	}
	if c.MemEntries <= 0 {
		c.MemEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 100000
	}
	return c
}

// fleetJob tracks one coordinated submission.
type fleetJob struct {
	id      string
	spec    service.JobSpec
	hash    string
	state   service.JobState
	cached  bool
	err     string
	started time.Time

	result []byte
	cancel context.CancelFunc
	events *service.EventLog

	subs                []service.SubStatus
	subDone             []int // per-sub max observed rep completions
	repsDone, repsTotal int
}

// Coordinator shards fleet jobs across noiselabd backends. Create with New,
// serve its Handler, stop with Close.
type Coordinator struct {
	cfg   Config
	ring  *Ring
	cache *rescache.Cache // memory-only merged-result cache
	met   *metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	backends map[string]*Backend
	down     map[string]bool // coordinator's view of backend liveness
	jobs     map[string]*fleetJob
	nextID   uint64
	draining bool

	wg sync.WaitGroup

	// testHookJobUpdate / testHookSubUpdate mirror the service package's
	// condition-based test waiting: called after every fleet-job state
	// transition / sub-job status change, with the coordinator mutex
	// released. Set before submitting.
	testHookJobUpdate func(id string, state service.JobState)
	testHookSubUpdate func(id string, sub service.SubStatus)
}

// New builds a Coordinator over the given backends.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	cache, err := rescache.New("", cfg.MemEntries)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ring := NewRing(cfg.Backends, cfg.Replicas)
	c := &Coordinator{
		cfg: cfg, ring: ring, cache: cache, met: newMetrics(ring.Members()),
		baseCtx: ctx, baseCancel: cancel,
		backends: make(map[string]*Backend, len(cfg.Backends)),
		down:     make(map[string]bool),
		jobs:     make(map[string]*fleetJob),
	}
	for _, name := range ring.Members() {
		c.backends[name] = &Backend{Name: name, Client: cfg.Client}
	}
	return c, nil
}

var errDraining = service.Unavailable("fleet: draining, not accepting jobs")

// Submit validates and hashes a spec, serves it from the merged-result
// cache when possible, and otherwise fans it out across the ring in a
// background goroutine.
//
// As on a daemon, the job enters the table only in its settled first
// state, under one lock hold: done on a cache hit, otherwise queued with
// its cancel func in place, so a concurrent Cancel cannot be lost.
func (c *Coordinator) Submit(spec service.JobSpec) (service.JobStatus, error) {
	spec.Normalize()
	if err := spec.Validate(c.cfg.MaxReps); err != nil {
		return service.JobStatus{}, err
	}
	hash, err := service.SpecHash(&spec)
	if err != nil {
		return service.JobStatus{}, err
	}
	subs, err := Split(spec, c.cfg.SubJobs)
	if err != nil {
		return service.JobStatus{}, err
	}
	data, hit := c.cache.Get(hash)

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return service.JobStatus{}, errDraining
	}
	c.nextID++
	job := &fleetJob{
		id:        fmt.Sprintf("f%06d", c.nextID),
		spec:      spec,
		hash:      hash,
		state:     service.StateQueued,
		events:    service.NewEventLog(c.cfg.EventKeep),
		subs:      make([]service.SubStatus, len(subs)),
		subDone:   make([]int, len(subs)),
		repsTotal: spec.TotalReps(),
	}
	for i, sub := range subs {
		job.subs[i] = service.SubStatus{Offset: sub.Offset, Reps: sub.Spec.TotalReps(), Hash: sub.Hash}
	}
	var ctx context.Context
	if hit { // a previously merged result completes the job at submit time
		job.state, job.cached, job.result = service.StateDone, true, data
		job.repsDone = spec.TotalReps()
	} else {
		ctx, job.cancel = context.WithTimeout(c.baseCtx, c.cfg.JobTimeout)
		c.wg.Add(1) // under c.mu, so a Close that follows waits for the job
	}
	c.jobs[job.id] = job
	st := job.status()
	c.mu.Unlock()
	c.met.submitted.Inc()
	c.met.inflight.Add(1)

	if hit {
		c.met.mergedHits.Inc()
		c.met.jobFinished("done", 0)
		c.notifyJob(job.id, service.StateDone)
		return st, nil
	}
	c.notifyJob(job.id, service.StateQueued)
	go func() {
		defer c.wg.Done()
		defer job.cancel()
		c.runJob(ctx, job, subs)
	}()
	return st, nil
}

// runJob fans the sub-jobs out, merges the slices, and finalizes the job.
func (c *Coordinator) runJob(ctx context.Context, job *fleetJob, subs []SubJob) {
	c.mu.Lock()
	job.state = service.StateRunning
	job.started = time.Now()
	c.mu.Unlock()
	c.notifyJob(job.id, service.StateRunning)
	c.met.fanout.Observe(float64(len(subs)))

	payloads := make([][]byte, len(subs))
	errs := make([]error, len(subs))
	var subWG sync.WaitGroup
	for i := range subs {
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			payloads[i], errs[i] = c.runSub(ctx, job, i, subs[i])
		}(i)
	}
	subWG.Wait()

	var data []byte
	err := ctx.Err()
	if err == nil {
		// Deterministic error selection: the lowest failing slice wins,
		// mirroring the executor's lowest-failing-rep rule.
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err == nil {
		data, err = Merge(job.hash, job.spec, subs, payloads)
	}
	if err == nil {
		err = c.cache.Put(job.hash, data)
	}
	if err == nil && job.spec.Timeline {
		// Only the offset-0 slice recorded a timeline; mirror it into the
		// coordinator cache so /timeline serves it like a single node would.
		if tl := c.fetchSubTimeline(ctx, job, 0); len(tl) > 0 {
			err = c.cache.Put(service.TimelineKey(job.hash, ""), tl)
		}
	}
	if err == nil && job.spec.Analyze != nil && job.spec.Analyze.Timeline {
		err = c.mirrorAnalysisTimelines(ctx, job, subs, data)
	}

	c.mu.Lock()
	var state service.JobState
	switch {
	case err == nil:
		job.state = service.StateDone
		job.result = data
		job.repsDone = job.spec.TotalReps()
	case errors.Is(err, context.Canceled):
		job.state = service.StateCanceled
		job.err = "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		job.state = service.StateFailed
		job.err = fmt.Sprintf("timed out after %v", c.cfg.JobTimeout)
	default:
		job.state = service.StateFailed
		job.err = err.Error()
	}
	state = job.state
	latency := time.Since(job.started).Seconds()
	c.mu.Unlock()
	c.met.jobFinished(string(state), latency)
	c.notifyJob(job.id, state)
}

// runSub executes one sub-job, walking the ring's failover sequence: the
// slice's owner first, then each next distinct node clockwise. A backend
// that cannot be reached, loses the job mid-stream, or cannot serve the
// result is marked down and the slice moves on; a deterministic execution
// failure is terminal everywhere, so it propagates instead of retrying.
func (c *Coordinator) runSub(ctx context.Context, job *fleetJob, idx int, sub SubJob) ([]byte, error) {
	var lastErr error
	for attempt, name := range c.candidates(sub.Hash) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt > 0 {
			c.met.subRetries.Inc()
			c.updateSub(job, idx, func(s *service.SubStatus) { s.Retries++ })
		}
		b := c.backends[name]
		payload, err := c.runSubOn(ctx, job, idx, sub, b)
		if err == nil {
			c.markUp(name, true)
			return payload, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var exec *execFailure
		if errors.As(err, &exec) {
			return nil, fmt.Errorf("fleet: sub-job %d (offset %d) failed on %s: %s", idx, sub.Offset, name, exec.msg)
		}
		c.markUp(name, false)
		lastErr = err
	}
	return nil, fmt.Errorf("fleet: sub-job %d (offset %d): all backends failed, last: %w", idx, sub.Offset, lastErr)
}

// execFailure marks a deterministic execution failure (the backend ran the
// slice and the engine said no) — retrying on another node cannot help.
type execFailure struct{ msg string }

func (e *execFailure) Error() string { return e.msg }

// runSubOn runs one sub-job attempt against one backend: submit, follow the
// SSE stream to a terminal state, fetch the stored bytes.
func (c *Coordinator) runSubOn(ctx context.Context, job *fleetJob, idx int, sub SubJob, b *Backend) ([]byte, error) {
	c.met.subJobs.Inc()
	st, err := b.Submit(ctx, sub.Spec)
	if err != nil {
		return nil, err
	}
	c.updateSub(job, idx, func(s *service.SubStatus) {
		s.Node, s.JobID, s.State = b.Name, st.ID, st.State
	})
	state := st.State
	if !state.Terminal() {
		state, err = b.WaitDone(ctx, st.ID, func(done, total int) {
			c.subProgress(job, idx, done)
			c.updateSub(job, idx, func(s *service.SubStatus) { s.State = service.StateRunning })
		})
		if err != nil {
			return nil, err
		}
	}
	if state != service.StateDone {
		// The engine is deterministic: a failed slice fails on every node.
		final, serr := b.Status(ctx, st.ID)
		msg := "job " + string(state)
		if serr == nil && final.Error != "" {
			msg = final.Error
		}
		return nil, &execFailure{msg: msg}
	}
	final, err := b.Status(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	payload, err := b.Result(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if final.Cached {
		c.met.subCacheHits.Inc()
	}
	c.subProgress(job, idx, sub.Spec.TotalReps())
	c.updateSub(job, idx, func(s *service.SubStatus) {
		s.State, s.Cached = service.StateDone, final.Cached
	})
	return payload, nil
}

// fetchSubTimeline pulls the recorded timeline of the sub-job at idx from
// the node that completed it. Best-effort: a missing timeline is not an
// error (the result payload is already merged and correct).
func (c *Coordinator) fetchSubTimeline(ctx context.Context, job *fleetJob, idx int) []byte {
	c.mu.Lock()
	node, id := job.subs[idx].Node, job.subs[idx].JobID
	c.mu.Unlock()
	b, ok := c.backends[node]
	if !ok || id == "" {
		return nil
	}
	tl, err := b.Timeline(ctx, id, "")
	if err != nil {
		return nil
	}
	return tl
}

// mirrorAnalysisTimelines pulls each source's evidence timeline from the
// shard that ran it and mirrors the bytes into the coordinator cache under
// the same keys noiselabd uses (service.TimelineKey per source, plus the
// bottleneck source's copy under the job's own timeline key), so the
// coordinator's timeline endpoints serve exactly what a single daemon
// would. Fetches are best-effort — the merged artifact is already complete
// — but a failed cache write still fails the job, matching the single-node
// rule.
func (c *Coordinator) mirrorAnalysisTimelines(ctx context.Context, job *fleetJob, subs []SubJob, merged []byte) error {
	art, err := analyze.Decode(merged)
	if err != nil {
		return fmt.Errorf("fleet: decoding merged analysis artifact: %w", err)
	}
	for i, sub := range subs {
		c.mu.Lock()
		node, id := job.subs[i].Node, job.subs[i].JobID
		c.mu.Unlock()
		b, ok := c.backends[node]
		if !ok || id == "" {
			continue
		}
		for _, src := range sub.Spec.Analyze.EffectiveSources() {
			tl, err := b.Timeline(ctx, id, src)
			if err != nil || len(tl) == 0 {
				continue
			}
			if err := c.cache.Put(service.TimelineKey(job.hash, src), tl); err != nil {
				return fmt.Errorf("fleet: storing %s timeline: %w", src, err)
			}
			if src == art.Bottleneck {
				if err := c.cache.Put(service.TimelineKey(job.hash, ""), tl); err != nil {
					return fmt.Errorf("fleet: storing timeline: %w", err)
				}
			}
		}
	}
	return nil
}

// candidates returns the failover walk for a placement key with known-down
// backends moved to the back (stable within each class). Down nodes stay in
// the list — a sub-job would rather probe a recovering node than fail.
func (c *Coordinator) candidates(key string) []string {
	seq := c.ring.Seq(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.SliceStable(seq, func(i, j int) bool {
		return !c.down[seq[i]] && c.down[seq[j]]
	})
	return seq
}

// markUp records the coordinator's liveness view after a backend contact.
func (c *Coordinator) markUp(name string, up bool) {
	c.mu.Lock()
	c.down[name] = !up
	c.mu.Unlock()
	c.met.setBackendUp(name, up)
}

// subProgress folds one sub-job's rep completions into the job-level
// aggregate. Per-sub counts only grow (failover restarts a slice from zero
// on the new node; the aggregate must not regress), and the EventLog's own
// monotone guard de-duplicates racing publishes.
func (c *Coordinator) subProgress(job *fleetJob, idx int, done int) {
	c.mu.Lock()
	if done > job.subDone[idx] {
		job.subDone[idx] = done
	}
	total := 0
	for _, d := range job.subDone {
		total += d
	}
	if total > job.repsDone {
		job.repsDone = total
	}
	cur, reps := job.repsDone, job.repsTotal
	c.mu.Unlock()
	job.events.PublishProgress(cur, reps)
}

// updateSub mutates one sub-job's wire status and fires the test hook.
func (c *Coordinator) updateSub(job *fleetJob, idx int, f func(*service.SubStatus)) {
	c.mu.Lock()
	f(&job.subs[idx])
	snap := job.subs[idx]
	c.mu.Unlock()
	if c.testHookSubUpdate != nil {
		c.testHookSubUpdate(job.id, snap)
	}
}

// notifyJob publishes a fleet-job state transition to the job's event
// stream and the test hook, with the coordinator mutex released.
func (c *Coordinator) notifyJob(id string, state service.JobState) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j != nil && j.events != nil {
		j.events.PublishState(state)
	}
	if c.testHookJobUpdate != nil {
		c.testHookJobUpdate(id, state)
	}
}

// Status returns the wire status of a fleet job, with per-sub-job detail.
func (c *Coordinator) Status(id string) (service.JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return service.JobStatus{}, false
	}
	return j.status(), true
}

// status is the job's wire status. Caller holds the coordinator mutex.
func (j *fleetJob) status() service.JobStatus {
	return service.JobStatus{
		ID: j.id, State: j.state, SpecHash: j.hash, Cached: j.cached, Error: j.err,
		RepsDone: j.repsDone, RepsTotal: j.repsTotal,
		SubJobs: append([]service.SubStatus(nil), j.subs...),
	}
}

// Events returns a fleet job's SSE event log.
func (c *Coordinator) Events(id string) (*service.EventLog, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	return j.events, true
}

// Result returns the merged payload bytes of a finished fleet job.
func (c *Coordinator) Result(id string) ([]byte, service.JobState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.result, j.state, true
}

// Timeline returns a mirrored timeline of a done fleet job (see
// service.API).
func (c *Coordinator) Timeline(id, source string) (data []byte, state service.JobState, found bool) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return nil, "", false
	}
	state, hash := j.state, j.hash
	c.mu.Unlock()
	if state != service.StateDone {
		return nil, state, true
	}
	data, _ = c.cache.Get(service.TimelineKey(hash, source))
	return data, state, true
}

// Cancel cancels a running fleet job (best-effort: in-flight sub-jobs are
// abandoned via context cancellation and cleaned up on their backends).
func (c *Coordinator) Cancel(id string) (service.JobState, bool) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return "", false
	}
	cancel := j.cancel
	state := j.state
	subs := append([]service.SubStatus(nil), j.subs...)
	c.mu.Unlock()
	if state.Terminal() {
		return state, true
	}
	cancel()
	// Best-effort backend cleanup so abandoned sub-jobs stop burning shards.
	for _, s := range subs {
		if s.JobID != "" && !s.State.Terminal() {
			if b, ok := c.backends[s.Node]; ok {
				ctx, done := context.WithTimeout(context.Background(), 2*time.Second)
				b.Cancel(ctx, s.JobID)
				done()
			}
		}
	}
	st, _ := c.Status(id)
	return st.State, true
}

// WriteMetrics renders the coordinator's registry in Prometheus text form.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	c.met.reg.WritePrometheus(w)
}

// Close stops the coordinator: cancels every running fleet job and waits
// for the job goroutines to exit.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.baseCancel()
	c.wg.Wait()
}
