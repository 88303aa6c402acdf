package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// seedCycle is how many inputs a kernel workload cycles through:
// iteration i runs the inputs seeded by inputSeed(seed, i). A run then
// measures a mix of inputs, so its figures do not hinge on one seed's draw.
const seedCycle = 4

// minIterations is the fewest iterations a kernel workload runs in a timed
// phase, whatever its length: input 0 runs twice, so its outputs and exact
// counts can be compared.
const minIterations = seedCycle + 1

// minBeyond is how many samples must lie beyond the highest percentile the
// benchmark reports.
const minBeyond = 10

// minJobs is the fewest jobs a kernel workload completes in a timed phase,
// whatever its length: the nearest-rank p90 of 100 samples has minBeyond
// samples beyond it.
const minJobs = 100

// phase is one timed pass over a workload, traced when tr is non-nil.
type phase struct {
	tr                   *tracer
	start, deadline, end time.Time

	// rates holds throughput samples: one per iteration for the kernel
	// workloads, one per fixed window for serve-mix.
	rates []rateSample
	// jobMs is the latency of every job (one Executor.Series call, or one
	// HTTP job from submit to result bytes), in milliseconds.
	jobMs []float64
	// reps and jobs are the phase totals.
	reps, jobs int
	// attempted and failed count the phase's operations.
	attempted, failed int
	// counts holds one exact-counter snapshot per traced iteration, and
	// inputs the input index each ran; host holds the world-pool counters,
	// which depend on which worker reused which world and so are not exact.
	counts, host []map[string]uint64
	inputs       []int
	// layer holds the workload's own per-layer values.
	layer map[string]float64

	cpu0, cpu1 time.Duration
	mem0, mem1 goStats
	// peakRSSMB is VmHWM when the phase's fixed amount of work is done.
	peakRSSMB float64
}

// rateSample is the work done in one interval.
type rateSample struct {
	wall       time.Duration
	reps, jobs int
}

func (ph *phase) begin(length time.Duration) {
	runtime.GC() // start from a collected heap, whatever ran before
	ph.layer = map[string]float64{}
	ph.mem0 = readGoStats()
	ph.cpu0 = processCPU()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(length)
	if ph.tr != nil {
		ph.tr.t0 = ph.start
	}
}

func (ph *phase) finish() {
	ph.end = time.Now()
	ph.cpu1 = processCPU()
	ph.mem1 = readGoStats()
	if ph.peakRSSMB == 0 { // serve-mix reads it earlier, at a fixed job count
		ph.peakRSSMB = peakRSSMB()
	}
}

func (ph *phase) wall() time.Duration { return ph.end.Sub(ph.start) }

// more reports whether a kernel workload should start iteration i.
func (ph *phase) more(i int) bool {
	return i < minIterations || len(ph.jobMs) < minJobs || time.Now().Before(ph.deadline)
}

// iteration records one completed kernel-workload iteration.
func (ph *phase) iteration(wall time.Duration, reps, jobs int) {
	ph.rates = append(ph.rates, rateSample{wall, reps, jobs})
	ph.reps += reps
	ph.jobs += jobs
}

// job records one job's latency.
func (ph *phase) job(d time.Duration) {
	ph.jobMs = append(ph.jobMs, ms(d))
}

// op counts one attempted operation and whether it failed.
func (ph *phase) op(err error, what string) bool {
	ph.attempted++
	if err != nil {
		ph.failed++
		fmt.Fprintf(os.Stderr, "noisebench: %s: %v\n", what, err)
		return false
	}
	return true
}

// registry returns a fresh obs counter registry on the traced run and nil
// on the untraced one.
func (ph *phase) registry() *obs.Registry {
	if ph.tr == nil {
		return nil
	}
	return obs.NewRegistry()
}

// exactCounters are the obs registry counters that are exact functions of
// the workload's inputs: simulated statistics.
var exactCounters = []string{
	"repro_runs_total",
	"repro_sim_steps_total",
	"repro_sched_context_switches_total",
	"repro_sched_inline_dispatches_total",
	"repro_sched_goroutine_handoffs_total",
	"repro_sched_preemptions_total",
	"repro_sched_migrations_total",
	"repro_noise_irqs_total",
	"repro_noise_tasks_spawned_total",
	"repro_obs_events_total",
}

// hostCounters are the world-pool counters: how many reps built a world
// and how many reused one varies with worker timing.
var hostCounters = []string{
	"repro_runs_total",
	"repro_sim_snapshots_total",
	"repro_sim_cow_copies_total",
	"repro_sim_batched_reps_total",
}

// addCounts snapshots the registry of one traced iteration, which ran input
// in, plus the workload's own exact counts.
func (ph *phase) addCounts(in int, reg *obs.Registry, extra map[string]uint64) {
	if reg == nil {
		return
	}
	read := func(names []string) map[string]uint64 {
		m := map[string]uint64{}
		for _, name := range names {
			m[name] = reg.Counter(name, "").Value()
		}
		return m
	}
	m := read(exactCounters)
	for k, v := range extra {
		m[k] = v
	}
	ph.counts = append(ph.counts, m)
	ph.inputs = append(ph.inputs, in)
	ph.host = append(ph.host, read(hostCounters))
}

// countsAgree fails unless every traced iteration produced the same exact
// counts as the first iteration that ran the same input, and some input
// ran twice.
func countsAgree(inputs []int, counts []map[string]uint64) error {
	if len(counts) == 0 {
		return nil
	}
	first := map[int]int{}
	repeated := false
	for i, m := range counts {
		f, seen := first[inputs[i]]
		if !seen {
			first[inputs[i]] = i
			continue
		}
		repeated = true
		for _, k := range sortedKeys(counts[f]) {
			if m[k] != counts[f][k] {
				return fmt.Errorf("iteration %d: %s = %d, iteration %d of the same input had %d",
					i, k, m[k], f, counts[f][k])
			}
		}
	}
	if !repeated {
		return fmt.Errorf("no input ran twice in %d traced iterations", len(counts))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// median returns the median of xs (the mean of the middle two for an even
// count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples rank strictly beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// tail returns the p-th percentile of xs, or an error when fewer than
// minBeyond samples lie beyond it: a tail read off fewer samples is noise.
func tail(xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianRate returns the median over samples of work/wall for the chosen
// unit.
func medianRate(rs []rateSample, unit func(rateSample) int) float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.wall > 0 {
			xs = append(xs, float64(unit(r))/r.wall.Seconds())
		}
	}
	return median(xs)
}

func repsOf(r rateSample) int { return r.reps }
func jobsOf(r rateSample) int { return r.jobs }

// ---------------------------------------------------------------------------
// Process and Go runtime readings
// ---------------------------------------------------------------------------

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goStats is a reading of the Go runtime's cumulative allocation and CPU
// counters.
type goStats struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goStats{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}
