package main

import (
	"math"
	"time"
)

// metricDef names a reported metric and its unit; BENCHMARK.json lists the
// same names and units (TestNamesMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of noiselab sees: host time and memory,
// never simulated time. Every workload reports all of them. A job is one
// Executor.Series call (one experiment cell) on the kernel workloads and
// one HTTP job on serve-mix.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"reps_per_s", "reps/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run. A layer a workload never calls
// reads 0.
var perLayerMetrics = []metricDef{
	{"sim.steps_per_rep", "count"},
	{"sim.cpu_ns_per_step", "ns"},
	{"cpusched.ctxsw_per_rep", "count"},
	{"cpusched.inline_dispatches_per_rep", "count"},
	{"cpusched.preemptions_per_rep", "count"},
	{"cpusched.migrations_per_rep", "count"},
	{"cpusched.goroutine_handoffs_per_rep", "count"},
	{"noise.irqs_per_rep", "count"},
	{"noise.tasks_spawned_per_rep", "count"},
	{"experiment.snapshots_per_rep", "count"},
	{"experiment.cow_copies_per_rep", "count"},
	{"experiment.batched_rep_frac", "ratio"},
	{"experiment.collect_s", "s"},
	{"experiment.baseline_s", "s"},
	{"experiment.inject_s", "s"},
	{"trace.overhead_ms_per_rep", "ms"},
	{"trace.build_profile_ms", "ms"},
	{"trace.worst_case_ms", "ms"},
	{"core.refine_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.config_events", "count"},
	{"analyze.run_s", "s"},
	{"analyze.encode_ms", "ms"},
	{"analyze.reps_per_run", "count"},
	{"obs.events_per_rep", "count"},
	{"obs.overhead_frac", "ratio"},
	{"go.alloc_bytes_per_rep", "B"},
	{"go.allocs_per_rep", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_bytes_per_job", "B"},
	{"service.submit_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.direct_job_p50_ms", "ms"},
	{"service.result_bytes_per_job", "B"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.execute_ms_p50", "ms"},
	{"cluster.execute_ms_p50", "ms"},
	{"rescache.hit_frac", "ratio"},
	{"fleet.backend_calls_per_job", "count"},
	{"fleet.backend_rtt_ms_p50", "ms"},
	{"fleet.subjob_retries", "count"},
	{"fleet.split_us", "us"},
	{"fleet.merge_us", "us"},
	{"fleet.merged_cache_hit_frac", "ratio"},
}

// exactPerRep maps the simulated-statistic metrics to the registry counter
// each divides by the run count. They are reported as integers: each is an
// invariant of the simulated output at a fixed seed.
var exactPerRep = map[string]string{
	"sim.steps_per_rep":                   "repro_sim_steps_total",
	"cpusched.ctxsw_per_rep":              "repro_sched_context_switches_total",
	"cpusched.inline_dispatches_per_rep":  "repro_sched_inline_dispatches_total",
	"cpusched.preemptions_per_rep":        "repro_sched_preemptions_total",
	"cpusched.migrations_per_rep":         "repro_sched_migrations_total",
	"cpusched.goroutine_handoffs_per_rep": "repro_sched_goroutine_handoffs_total",
	"noise.irqs_per_rep":                  "repro_noise_irqs_total",
	"noise.tasks_spawned_per_rep":         "repro_noise_tasks_spawned_total",
}

// exactCounts are the workload-level exact counts, reported as integers.
var exactCounts = []string{"core.config_events", "analyze.reps_per_run"}

// endToEnd computes the end-to-end metrics of an untraced phase. A job tail
// with fewer than minBeyond samples beyond it fails a check.
func endToEnd(ph *phase, setupS float64, c *checker) map[string]metric {
	var p90 float64
	c.run("job_p90_ms has enough samples", func() (err error) {
		p90, err = tail(ph.jobMs, 90)
		return err
	})
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"reps_per_s":  {medianRate(ph.rates, repsOf), "reps/s"},
		"jobs_per_s":  {medianRate(ph.rates, jobsOf), "jobs/s"},
		"job_p50_ms":  {median(ph.jobMs), "ms"},
		"job_p90_ms":  {p90, "ms"},
		"peak_rss_mb": {ph.peakRSSMB, "MB"},
	}
}

// perLayer computes the per-layer metrics from the untraced phase plain and
// the traced phase tp.
func perLayer(plain, tp *phase) map[string]metric {
	v := map[string]any{}
	for _, d := range perLayerMetrics {
		v[d.name] = 0.0
	}
	for m := range exactPerRep {
		v[m] = int64(0)
	}
	for _, m := range exactCounts {
		v[m] = int64(0)
	}
	for k, x := range tp.layer {
		v[k] = x
	}
	if len(tp.counts) > 0 {
		c := tp.counts[0]
		if runs := c["repro_runs_total"]; runs > 0 {
			per := func(name string) float64 { return float64(c[name]) / float64(runs) }
			for m, counter := range exactPerRep {
				v[m] = int64(math.Round(per(counter)))
			}
			v["obs.events_per_rep"] = per("repro_obs_events_total")
		}
		// The untraced run mixed the inputs as the traced run did, so its
		// steps are its reps times the traced run's mean steps per rep.
		var steps, runs uint64
		for _, m := range tp.counts {
			steps += m["repro_sim_steps_total"]
			runs += m["repro_runs_total"]
		}
		if steps > 0 && plain.reps > 0 {
			perRep := float64(steps) / float64(runs)
			v["sim.cpu_ns_per_step"] = float64((plain.cpu1 - plain.cpu0).Nanoseconds()) / (perRep * float64(plain.reps))
		}
		for _, m := range exactCounts {
			if x, ok := c[m]; ok {
				v[m] = int64(x)
			}
		}
	}
	host := map[string]uint64{}
	for _, m := range tp.host {
		for k, x := range m {
			host[k] += x
		}
	}
	if runs := host["repro_runs_total"]; runs > 0 {
		per := func(name string) float64 { return float64(host[name]) / float64(runs) }
		v["experiment.snapshots_per_rep"] = per("repro_sim_snapshots_total")
		v["experiment.cow_copies_per_rep"] = per("repro_sim_cow_copies_total")
		v["experiment.batched_rep_frac"] = per("repro_sim_batched_reps_total")
	}
	if tr := medianRate(tp.rates, jobsOf); tr > 0 {
		v["obs.overhead_frac"] = medianRate(plain.rates, jobsOf)/tr - 1
	}
	alloc := float64(plain.mem1.allocBytes - plain.mem0.allocBytes)
	if plain.reps > 0 {
		v["go.alloc_bytes_per_rep"] = alloc / float64(plain.reps)
		v["go.allocs_per_rep"] = float64(plain.mem1.allocs-plain.mem0.allocs) / float64(plain.reps)
	}
	if plain.jobs > 0 {
		v["go.alloc_bytes_per_job"] = alloc / float64(plain.jobs)
	}
	if cpu := plain.mem1.totalCPU - plain.mem0.totalCPU; cpu > 0 {
		v["go.gc_cpu_frac"] = (plain.mem1.gcCPU - plain.mem0.gcCPU) / cpu
	}
	out := map[string]metric{}
	for _, d := range perLayerMetrics {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// spanMedian returns the median duration in milliseconds of the named
// spans.
func spanMedian(tr *tracer, name string) float64 { return median(tr.durations(name)) }

// perIDSeconds sums the durations of the spans named name per unit of work
// (span ID), in seconds.
func perIDSeconds(tr *tracer, name string) []float64 {
	sums := map[string]float64{}
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			sums[s.ID] += float64(s.End-s.Start) / float64(time.Second)
		}
	}
	out := make([]float64, 0, len(sums))
	for _, k := range sortedKeys(sums) {
		out = append(out, sums[k])
	}
	return out
}
