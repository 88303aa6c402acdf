package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/mitigate"
	"repro/internal/service"
)

// serve-mix is a closed loop of two clients over loopback HTTP against a
// fleet coordinator fronting two in-process daemons (one worker, one
// executor thread, a memory-only result cache each). Every job simulates
// only a few thousand events, so HTTP, decode, hash, cache, queue, split
// and merge dominate: the layers a single serving surface would collapse,
// which a kernel speed-up should barely move.
//
// The daemons keep no on-disk cache: writing one file per fresh job put
// the host's disk latency into every job, and on a shared host that moved
// throughput between about 600 and 1150 jobs/s for the same code, run to
// run; with memory-only caches it stays within a few percent.
//
// The timed phase is a sequence of rounds. Each round starts a fresh
// serving stack with empty caches and runs a job stream of its own on it
// until serveRoundJobs jobs have ended. The daemons and the coordinator keep
// every job they ran, so on one long-lived stack the live heap grows all
// run long, garbage collection gets rarer, and throughput climbs by about
// 2x over 20 s: a figure read off that trajectory depends on how far a run
// got along it. A round is a fixed amount of work from a fixed state.
// Rounds draw distinct streams because job costs vary with the mix: one
// 1000-job stream repeated all run long put throughput 15% apart between
// seeds, a median over many streams averages that out.

const (
	serveClients     = 2
	serveDaemons     = 2
	serveKernelReps  = 4
	serveClusterReps = 2
	// serveRoundJobs is how many jobs one round runs; a round is one
	// throughput sample.
	serveRoundJobs = 1000
	// serveMinRounds is the fewest rounds a timed phase runs, whatever its
	// length.
	serveMinRounds = 3
	// serveRecent bounds how far back a resubmit reaches: the client's
	// last few fresh jobs, well inside the coordinator's merged-result
	// cache.
	serveRecent = 16
	// serveCheckEvery selects the fresh jobs the checks recompute: indexes
	// divisible by it, in the first serveCheckRounds rounds.
	serveCheckEvery  = 16
	serveCheckRounds = 3
	// serveTimeRepeats is how often fleet.Split and fleet.Merge are re-run
	// per sampled job when timing them.
	serveTimeRepeats = 20
)

// serveKernels are the (workload, model) pairs of the kernel jobs: the
// tiny-test cells, as in the fleet package's kernelSpec, that simulate at most about 1.2k events per rep, so a
// job's latency is mostly serving, not simulation.
var serveKernels = []struct{ workload, model string }{
	{"nbody", "omp"}, {"nbody", "sycl"}, {"babelstream", "omp"},
	{"minife", "omp"}, {"schedbench", "omp"}, {"svcloop", "omp"},
}

// jobKind is the type of one client job.
type jobKind int

const (
	kindKernel   jobKind = iota // fresh tiny-test kernel job via the coordinator
	kindCluster                 // fresh small cluster job via the coordinator
	kindDirect                  // fresh kernel job sent straight to one daemon
	kindResubmit                // an earlier fresh job of this client, sent again
)

var kindNames = []string{"client.kernel", "client.cluster", "client.direct", "client.resubmit"}

// plannedJob is one job of a client's stream.
type plannedJob struct {
	kind   jobKind
	spec   service.JobSpec // fresh jobs
	daemon int             // kindDirect: the daemon it is sent to
	ref    int             // kindResubmit: index of the earlier fresh job
}

// jobPlan generates one client's job stream in one round, a pure function
// of the workload seed, the round and the client index.
type jobPlan struct {
	rng   *rand.Rand
	fresh []int // indexes of the fresh jobs generated so far
	n     int
}

func newJobPlan(seed uint64, round, client int) *jobPlan {
	s := experiment.SeedFor(seed, "serve-mix", strconv.Itoa(round), strconv.Itoa(client))
	return &jobPlan{rng: rand.New(rand.NewPCG(s, uint64(client)))}
}

// next draws the next job: 25% resubmits, 15% direct-to-daemon jobs, 15%
// cluster jobs and 45% kernel jobs via the coordinator. The shares are an
// assumption, not taken from recorded usage (README.md).
func (p *jobPlan) next() plannedJob {
	n := p.n
	p.n++
	r := p.rng.IntN(100)
	var j plannedJob
	switch {
	case r < 25 && len(p.fresh) > 0:
		recent := p.fresh[max(0, len(p.fresh)-serveRecent):]
		return plannedJob{kind: kindResubmit, ref: recent[p.rng.IntN(len(recent))]}
	case r < 40:
		j = plannedJob{kind: kindDirect, spec: p.kernelSpec(), daemon: p.rng.IntN(serveDaemons)}
	case r < 55:
		j = plannedJob{kind: kindCluster, spec: p.clusterSpec()}
	default:
		j = plannedJob{kind: kindKernel, spec: p.kernelSpec()}
	}
	p.fresh = append(p.fresh, n)
	return j
}

func (p *jobPlan) kernelSpec() service.JobSpec {
	cols := mitigate.Columns()
	k := serveKernels[p.rng.IntN(len(serveKernels))]
	return service.JobSpec{
		Platform: "tiny-test", Size: "small", Workload: k.workload, Model: k.model,
		Strategy: cols[p.rng.IntN(len(cols))].Name(),
		Seed:     p.rng.Uint64(), Reps: serveKernelReps,
	}
}

func (p *jobPlan) clusterSpec() service.JobSpec {
	policies := cluster.PolicyNames()
	return service.JobSpec{
		Seed: p.rng.Uint64(), Reps: serveClusterReps,
		Cluster: &cluster.Spec{
			Nodes: 2, Straggler: 1, StragglerScale: 4,
			Policy:  policies[p.rng.IntN(len(policies))],
			Tenants: 1, JobsPerTenant: 2, Width: 2, WorkerMs: 1, ArrivalMs: 1,
		},
	}
}

// jobRecord is one completed client job.
type jobRecord struct {
	round  int
	n      int
	kind   jobKind
	spec   service.JobSpec // as submitted
	target int             // -1: the coordinator; else a daemon index
	id     string          // job ID at the target
	cached bool
	// sum and size describe the result bytes; the bytes themselves are
	// kept only for the jobs the checks recompute.
	sum    [sha256.Size]byte
	size   int
	result []byte
	at     time.Time // when the result bytes were received
	ms     float64   // latency from submit to result bytes
	// payloads are a sampled coordinator job's sub-job results, read back
	// from the daemons before the round's stack stopped; readErr is why
	// they could not be.
	payloads [][]byte
	readErr  error
}

// sampled reports whether the checks recompute fresh job n of round r.
func sampled(r, n int) bool { return r < serveCheckRounds && n%serveCheckEvery == 0 }

// clientRun is what one client recorded in one round.
type clientRun struct {
	jobs              []*jobRecord
	fresh             map[int]*jobRecord
	resubmits         []*jobRecord
	attempted, failed int
}

// roundTripLog is the http.RoundTripper the coordinator calls its backends
// through: it counts the calls and times each until response headers.
type roundTripLog struct {
	next http.RoundTripper
	mu   sync.Mutex
	rtts []float64 // ms
}

func (l *roundTripLog) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := l.next.RoundTrip(req)
	d := ms(time.Since(t0))
	l.mu.Lock()
	l.rtts = append(l.rtts, d)
	l.mu.Unlock()
	return resp, err
}

// stack is one serving stack: the daemons and the coordinator, each
// listening on a loopback port, and the HTTP transports that reach them.
type stack struct {
	daemons    []*service.Server
	daemonURLs []string
	coord      *fleet.Coordinator
	coordURL   string
	servers    []*http.Server
	serving    sync.WaitGroup
	rt         *roundTripLog
	transports []*http.Transport
}

// startStack starts a serving stack. On error it stops whatever it
// started.
func startStack() (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	for d := 0; d < serveDaemons; d++ {
		srv, err := service.New(service.Config{Workers: 1, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, srv)
		url, err := s.listen(srv.Handler())
		if err != nil {
			return nil, err
		}
		s.daemonURLs = append(s.daemonURLs, url)
	}
	s.rt = &roundTripLog{next: s.transport()}
	if s.coord, err = fleet.New(fleet.Config{
		Backends: s.daemonURLs, Client: &http.Client{Transport: s.rt},
	}); err != nil {
		return nil, err
	}
	if s.coordURL, err = s.listen(s.coord.Handler()); err != nil {
		return nil, err
	}
	return s, nil
}

// listen serves h on a loopback port and returns its base URL. The port
// accepts connections once listen returns.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.servers = append(s.servers, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return "http://" + ln.Addr().String(), nil
}

// transport returns a new HTTP transport that stop closes.
func (s *stack) transport() *http.Transport {
	t := &http.Transport{MaxIdleConnsPerHost: serveClients}
	s.transports = append(s.transports, t)
	return t
}

// stop closes the listeners, waits for the servers to return, and stops
// the coordinator and the daemons.
func (s *stack) stop() {
	for _, hs := range s.servers {
		_ = hs.Close() // closing the listener is all stop needs
	}
	s.serving.Wait()
	if s.coord != nil {
		s.coord.Close()
	}
	for _, d := range s.daemons {
		d.Close()
	}
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

func (s *stack) daemonIndex(url string) int {
	for i, u := range s.daemonURLs {
		if u == url {
			return i
		}
	}
	return -1
}

type serveMix struct {
	seed uint64
	st   *stack
	// rounds holds what each round's clients recorded.
	rounds [][]*clientRun
	// ended counts the jobs of the current round that ended, done or
	// failed.
	ended atomic.Int64
	// The traced run's per-layer readings, read from each round's stack
	// before it stopped. splitUs and mergeUs are the re-timed fleet.Split
	// and fleet.Merge calls, in microseconds.
	queueMs, executeMs, clusterExecMs, rtts []float64
	cacheHits, executions                   float64
	fleetCounters                           map[string]float64
	splitUs, mergeUs                        []float64
}

func (w *serveMix) setup(seed uint64) (err error) {
	*w = serveMix{seed: seed}
	w.st, err = startStack()
	return err
}

func (w *serveMix) teardown() {
	if w.st != nil {
		w.st.stop()
		w.st = nil
	}
}

// run runs rounds until the deadline, and at least serveMinRounds. After
// each round, outside its timing, it reads what the checks and the traced
// run need from the round's stack, then replaces the stack with a fresh
// one. On the traced run those gaps are "serve.harvest" and
// "serve.restart" spans on every client's track.
func (w *serveMix) run(ph *phase) error {
	for r := 0; ; r++ {
		if err := w.round(ph, r); err != nil {
			return err
		}
		w.between(ph, r, "serve.harvest", func() error {
			w.harvest(ph, w.rounds[r])
			return nil
		})
		if r+1 >= serveMinRounds && !time.Now().Before(ph.deadline) {
			return nil
		}
		err := w.between(ph, r, "serve.restart", func() (err error) {
			w.teardown()
			w.st, err = startStack()
			runtime.GC() // every round starts from a collected heap
			return err
		})
		if err != nil {
			return err
		}
	}
}

// between runs f after round r and records it as a span named name on
// every client's track: the clients wait for it.
func (w *serveMix) between(ph *phase, r int, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	for c := 0; c < serveClients; c++ {
		ph.tr.add(name, "r"+strconv.Itoa(r), c, -1, t0, time.Now())
	}
	return err
}

// round runs the clients on the current stack until serveRoundJobs jobs
// have ended, and records the round as one throughput sample: the jobs
// received up to the serveRoundJobs-th end, over the time it took.
func (w *serveMix) round(ph *phase, r int) error {
	w.ended.Store(0)
	clients := make([]*clientRun, serveClients)
	w.rounds = append(w.rounds, clients)
	start := time.Now()
	var last atomic.Pointer[time.Time]
	var wg sync.WaitGroup
	for c := range clients {
		cr := &clientRun{fresh: map[int]*jobRecord{}}
		clients[c] = cr
		hc := &http.Client{Transport: w.st.transport()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(ph, r, c, hc, cr, &last)
		}()
	}
	wg.Wait()

	end := *last.Load()
	sample := rateSample{wall: end.Sub(start)}
	for _, cr := range clients {
		ph.attempted += cr.attempted
		ph.failed += cr.failed
		for _, j := range cr.jobs {
			ph.jobMs = append(ph.jobMs, j.ms)
			ph.reps += j.spec.Reps
			ph.jobs++
			if !j.at.After(end) {
				sample.jobs++
				sample.reps += j.spec.Reps
			}
		}
	}
	if sample.jobs == 0 {
		return fmt.Errorf("serve-mix round %d completed no job", r)
	}
	ph.rates = append(ph.rates, sample)
	return nil
}

// client runs one closed-loop client of round r until the round's
// serveRoundJobs jobs have ended: it sends its next job only once the
// previous job's result bytes have arrived. Whichever client ends the
// round's last counted job stores the time in last; in the first round it
// also reads peak_rss_mb, which thus covers set-up and one round, a fixed
// amount of work.
func (w *serveMix) client(ph *phase, r, c int, hc *http.Client, cr *clientRun, last *atomic.Pointer[time.Time]) {
	plan := newJobPlan(w.seed, r, c)
	for w.ended.Load() < serveRoundJobs {
		pj := plan.next()
		n := plan.n - 1
		rec := &jobRecord{round: r, n: n, kind: pj.kind, spec: pj.spec, target: -1}
		switch pj.kind {
		case kindDirect:
			rec.target = pj.daemon
		case kindResubmit:
			ref := cr.fresh[pj.ref]
			if ref == nil { // the earlier job failed
				continue
			}
			rec.spec, rec.target = ref.spec, ref.target
			rec.n = pj.ref
		}
		url := w.st.coordURL
		if rec.target >= 0 {
			url = w.st.daemonURLs[rec.target]
		}
		id := fmt.Sprintf("r%d/c%d/j%d", r, c, n)
		cr.attempted++
		t0 := time.Now()
		sp := ph.tr.begin(kindNames[pj.kind], id, c, -1)
		err := doJob(ph.tr, c, id, sp, &fleet.Backend{Name: url, Client: hc}, rec)
		ph.tr.end(sp)
		rec.at = time.Now()
		rec.ms = ms(rec.at.Sub(t0))
		if w.ended.Add(1) == serveRoundJobs {
			at := rec.at
			last.Store(&at)
			if r == 0 {
				ph.peakRSSMB = peakRSSMB() // read by round only after every client has returned
			}
		}
		if err != nil {
			cr.failed++
			fmt.Fprintf(os.Stderr, "noisebench: serve-mix job %s: %v\n", id, err)
			continue
		}
		cr.jobs = append(cr.jobs, rec)
		if pj.kind == kindResubmit {
			cr.resubmits = append(cr.resubmits, rec)
		} else {
			cr.fresh[n] = rec
		}
	}
}

// doJob submits rec.spec, follows the job's event stream until it ends,
// and fetches the result bytes: the path noiselab submit takes.
func doJob(tr *tracer, track int, id string, parent int, b *fleet.Backend, rec *jobRecord) error {
	ctx := context.Background()
	sp := tr.begin("service.submit", id, track, parent)
	st, err := b.Submit(ctx, rec.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	rec.id, rec.cached = st.ID, st.Cached
	if !st.State.Terminal() {
		sp = tr.begin("service.wait", id, track, parent)
		st.State, err = b.WaitDone(ctx, st.ID, nil)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s", st.ID, st.State)
	}
	sp = tr.begin("service.result", id, track, parent)
	data, err := b.Result(ctx, st.ID)
	tr.end(sp)
	rec.sum, rec.size = sha256.Sum256(data), len(data)
	if rec.kind != kindResubmit && sampled(rec.round, rec.n) {
		rec.result = data
	}
	return err
}

// harvest reads from the current stack, before it stops, the sub-job
// payloads of the round's sampled coordinator jobs and, on the traced run,
// the per-layer readings: backend job timestamps, cache and coordinator
// counters, backend round trips.
func (w *serveMix) harvest(ph *phase, round []*clientRun) {
	for _, cr := range round {
		for n, rec := range cr.fresh {
			if rec.target < 0 && sampled(rec.round, n) {
				rec.payloads, rec.readErr = w.payloads(rec)
			}
		}
	}
	if ph.tr == nil {
		return
	}
	observe := func(d int, id string, isCluster bool) {
		j, ok := w.st.daemons[d].Job(id)
		if !ok || j.Cached || j.State != service.StateDone {
			return
		}
		w.queueMs = append(w.queueMs, ms(j.Started.Sub(j.Created)))
		e := ms(j.Finished.Sub(j.Started))
		w.executeMs = append(w.executeMs, e)
		if isCluster {
			w.clusterExecMs = append(w.clusterExecMs, e)
		}
	}
	for _, cr := range round {
		for _, n := range sortedKeys(cr.fresh) {
			r := cr.fresh[n]
			if r.target >= 0 {
				observe(r.target, r.id, false)
				continue
			}
			st, ok := w.st.coord.Status(r.id)
			if !ok {
				continue
			}
			for _, sub := range st.SubJobs {
				if d := w.st.daemonIndex(sub.Node); d >= 0 {
					observe(d, sub.JobID, r.spec.Cluster != nil)
				}
			}
		}
	}
	for _, d := range w.st.daemons {
		m := d.Metrics()
		w.cacheHits += float64(m.CacheHits)
		w.executions += float64(m.Executions)
	}
	w.st.rt.mu.Lock()
	w.rtts = append(w.rtts, w.st.rt.rtts...)
	w.st.rt.mu.Unlock()
	var text bytes.Buffer
	w.st.coord.WriteMetrics(&text)
	if w.fleetCounters == nil {
		w.fleetCounters = map[string]float64{}
	}
	for k, v := range promCounters(text.String()) {
		w.fleetCounters[k] += v
	}
}

// payloads reads a coordinator job's sub-job results back from the
// daemons, in the coordinator's sub-job order.
func (w *serveMix) payloads(rec *jobRecord) ([][]byte, error) {
	st, ok := w.st.coord.Status(rec.id)
	if !ok {
		return nil, fmt.Errorf("coordinator lost job %s", rec.id)
	}
	out := make([][]byte, len(st.SubJobs))
	for i, sub := range st.SubJobs {
		d := w.st.daemonIndex(sub.Node)
		if d < 0 {
			return nil, fmt.Errorf("sub-job %d ran on unknown node %s", i, sub.Node)
		}
		data, state, ok := w.st.daemons[d].Result(sub.JobID)
		if !ok || state != service.StateDone {
			return nil, fmt.Errorf("sub-job %s on %s: %s", sub.JobID, sub.Node, state)
		}
		out[i] = data
	}
	return out, nil
}

// localResult recomputes a job's result payload in process, through the
// same encoder the daemon uses.
func localResult(spec service.JobSpec) ([]byte, error) {
	hash, err := service.SpecHash(&spec) // normalizes spec
	if err != nil {
		return nil, err
	}
	exec := experiment.Executor{Parallelism: parallelism}
	if spec.Cluster != nil {
		results, err := exec.ClusterSeries(context.Background(), *spec.Cluster, spec.Seed, spec.Reps)
		if err != nil {
			return nil, err
		}
		return service.BuildClusterResult(hash, spec, results)
	}
	es, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	times, traces, err := exec.Series(context.Background(), es, spec.Reps)
	if err != nil {
		return nil, err
	}
	return service.BuildResult(hash, spec, times, traces)
}

// checkResubmit fails unless a resubmitted job came back cached with the
// original job's bytes.
func checkResubmit(orig, again *jobRecord) error {
	if !again.cached {
		return fmt.Errorf("resubmit of job %d was not served from cache", orig.n)
	}
	if again.sum != orig.sum || again.size != orig.size {
		return fmt.Errorf("resubmit of job %d: %d bytes, sha256 %x; original %d bytes, sha256 %x",
			orig.n, again.size, again.sum, orig.size, orig.sum)
	}
	return nil
}

func (w *serveMix) check(ph *phase, c *checker) {
	for r, round := range w.rounds {
		for ci, cr := range round {
			for _, rec := range cr.resubmits {
				c.run(fmt.Sprintf("serve-mix round %d client %d resubmit of job %d is cached and identical", r, ci, rec.n),
					func() error { return checkResubmit(cr.fresh[rec.n], rec) })
			}
			for _, n := range sortedKeys(cr.fresh) {
				rec := cr.fresh[n]
				if !sampled(r, n) {
					continue
				}
				c.run(fmt.Sprintf("serve-mix round %d client %d job %d equals a local recomputation", r, ci, n), func() error {
					want, err := localResult(rec.spec)
					if err != nil {
						return err
					}
					return checkBytes("result", rec.result, want)
				})
				if rec.target < 0 {
					c.run(fmt.Sprintf("serve-mix round %d client %d job %d equals fleet.Merge of its slices", r, ci, n), func() error {
						return w.remerge(ph, rec)
					})
				}
			}
		}
	}
	if ph.tr != nil {
		w.layerMetrics(ph)
	}
}

// remerge re-splits a fleet job's spec and re-merges its sub-job payloads,
// read back from the daemons, timing both calls: the merge must reproduce
// the bytes the client received.
func (w *serveMix) remerge(ph *phase, rec *jobRecord) error {
	if rec.readErr != nil {
		return rec.readErr
	}
	parent := rec.spec
	hash, err := service.SpecHash(&parent)
	if err != nil {
		return err
	}
	var subs []fleet.SubJob
	t0 := time.Now()
	for i := 0; i < serveTimeRepeats; i++ {
		if subs, err = fleet.Split(parent, serveDaemons); err != nil {
			return err
		}
	}
	split := time.Since(t0) / serveTimeRepeats
	if len(subs) != len(rec.payloads) {
		return fmt.Errorf("split into %d sub-jobs, coordinator ran %d", len(subs), len(rec.payloads))
	}
	var merged []byte
	t0 = time.Now()
	for i := 0; i < serveTimeRepeats; i++ {
		if merged, err = fleet.Merge(hash, parent, subs, rec.payloads); err != nil {
			return err
		}
	}
	merge := time.Since(t0) / serveTimeRepeats
	if ph.tr != nil {
		w.splitUs = append(w.splitUs, float64(split.Nanoseconds())/1e3)
		w.mergeUs = append(w.mergeUs, float64(merge.Nanoseconds())/1e3)
	}
	return checkBytes("merged result", merged, rec.result)
}

// layerMetrics fills the traced run's per-layer values from the client
// spans and records and what harvest read from every round's stack.
func (w *serveMix) layerMetrics(ph *phase) {
	l := ph.layer
	l["service.submit_ms_p50"] = spanMedian(ph.tr, "service.submit")
	l["service.result_ms_p50"] = spanMedian(ph.tr, "service.result")
	l["fleet.split_us"] = median(w.splitUs)
	l["fleet.merge_us"] = median(w.mergeUs)

	var direct []float64
	var resultBytes, jobs, fleetJobs float64
	for _, round := range w.rounds {
		for _, cr := range round {
			for _, r := range cr.jobs {
				resultBytes += float64(r.size)
				jobs++
				if r.target < 0 {
					fleetJobs++
				} else if r.kind != kindResubmit {
					direct = append(direct, r.ms)
				}
			}
		}
	}
	l["service.direct_job_p50_ms"] = median(direct)
	l["service.queue_wait_ms_p50"] = median(w.queueMs)
	l["service.execute_ms_p50"] = median(w.executeMs)
	l["cluster.execute_ms_p50"] = median(w.clusterExecMs)
	if jobs > 0 {
		l["service.result_bytes_per_job"] = resultBytes / jobs
	}
	if w.cacheHits+w.executions > 0 {
		l["rescache.hit_frac"] = w.cacheHits / (w.cacheHits + w.executions)
	}
	l["fleet.backend_rtt_ms_p50"] = median(w.rtts)
	if fleetJobs > 0 {
		l["fleet.backend_calls_per_job"] = float64(len(w.rtts)) / fleetJobs
	}
	l["fleet.subjob_retries"] = w.fleetCounters["noisefleet_subjob_retries_total"]
	if sub := w.fleetCounters["noisefleet_jobs_submitted_total"]; sub > 0 {
		l["fleet.merged_cache_hit_frac"] = w.fleetCounters["noisefleet_merged_cache_hits_total"] / sub
	}
}

// promCounters parses the unlabelled samples of Prometheus text output.
func promCounters(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
