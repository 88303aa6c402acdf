package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// inject-pipeline is the paper's Table-3 flow on nbody, one table per
// iteration: on each platform a traced collection series, then
// trace.BuildProfile -> trace.WorstCase -> core.Refine -> core.Generate,
// then untraced baseline and injected replay series for both models across
// the six strategy columns. Its reps are short and compute-bound, so
// per-rep fixed costs (world fork, the tracer, injector replay, trace and
// core) dominate.

// injectPlatforms lists the platforms with their rep count per series (the
// collection, each baseline cell and each injected cell alike). A rep of
// the AMD-sized nbody costs about eight Intel reps, so the counts give
// every series about the same host time and job latencies one mode.
var injectPlatforms = []struct {
	name string
	reps int
}{
	{"intel-9700kf", 32},
	{"amd-9950x3d", 4},
}

const (
	injectWorkload = "nbody"
	injectImproved = true
	// injectConfigID is the ConfigSource ID whose collection seed the
	// composed pipeline reuses, so BuildConfigExec must agree with it.
	injectConfigID = 1
)

type injectPipeline struct {
	seed   uint64
	pinned map[string]string
	plats  []*platform.Platform
	reps   []int
	specs  []workloads.Workload
	outs   []injectOutput
}

// injectOutput is one iteration's table and configs.
type injectOutput struct {
	input   int
	configs []*core.Config // per platform
	table   [][]sim.Time   // per baseline and injected series, in run order
}

func (w *injectPipeline) setup(seed uint64) error {
	pinned, err := loadPinned()
	if err != nil {
		return err
	}
	*w = injectPipeline{seed: seed, pinned: pinned["inject-pipeline"]}
	for _, ip := range injectPlatforms {
		p, err := platform.New(ip.name)
		if err != nil {
			return err
		}
		spec, err := p.WorkloadSpec(injectWorkload)
		if err != nil {
			return err
		}
		w.plats = append(w.plats, p)
		w.reps = append(w.reps, ip.reps)
		w.specs = append(w.specs, spec)
	}
	return nil
}

func (w *injectPipeline) teardown() {}

// collectSpec is the traced collection spec BuildConfigExec would use.
func (w *injectPipeline) collectSpec(pi int, seed uint64) experiment.Spec {
	return experiment.Spec{
		Platform: w.plats[pi], Workload: w.specs[pi], Model: "omp", Strategy: mitigate.Rm,
		Seed: experiment.SeedFor(seed, "collect", injectWorkload, "omp", mitigate.Rm.Name(),
			fmt.Sprint(injectConfigID)),
		Tracing: true,
	}
}

func (w *injectPipeline) run(ph *phase) error {
	var overheadMs []float64
	for it := 0; ph.more(it); it++ {
		out, extra, err := w.iterate(ph, it)
		if err != nil {
			continue // counted as a failed operation by series
		}
		if ph.tr != nil {
			overheadMs = append(overheadMs, extra)
		}
		w.outs = append(w.outs, out)
	}
	if ph.tr != nil {
		ph.layer["experiment.collect_s"] = median(perIDSeconds(ph.tr, "experiment.Series.collect"))
		ph.layer["experiment.baseline_s"] = median(perIDSeconds(ph.tr, "experiment.Series.baseline"))
		ph.layer["experiment.inject_s"] = median(perIDSeconds(ph.tr, "experiment.Series.inject"))
		ph.layer["trace.overhead_ms_per_rep"] = median(overheadMs)
		ph.layer["trace.build_profile_ms"] = spanMedian(ph.tr, "trace.BuildProfile")
		ph.layer["trace.worst_case_ms"] = spanMedian(ph.tr, "trace.WorstCase")
		ph.layer["core.refine_ms"] = spanMedian(ph.tr, "core.Refine")
		ph.layer["core.generate_ms"] = spanMedian(ph.tr, "core.Generate")
	}
	return nil
}

// iterate runs one table. On the traced run it also times an untraced
// copy of each collection series and returns the tracer's host overhead
// per collection rep in milliseconds; that comparison is excluded from the
// iteration's wall time and work.
func (w *injectPipeline) iterate(ph *phase, it int) (injectOutput, float64, error) {
	id := iterID(it)
	seed := inputSeed(w.seed, it)
	reg := ph.registry()
	exec := newExec(reg)
	t0 := time.Now()
	var (
		out            = injectOutput{input: it % seedCycle}
		reps, jobs     int
		traced, plain  time.Duration
		configEvents   uint64
		comparisonTime time.Duration
	)
	collectReps := 0
	for pi, p := range w.plats {
		n := w.reps[pi]
		spec := w.collectSpec(pi, seed)
		_, traces, d, err := series(ph, exec, "experiment.Series.collect", id, spec, n)
		if err != nil {
			return out, 0, err
		}
		reps, jobs, traced, collectReps = reps+n, jobs+1, traced+d, collectReps+n
		if ph.tr != nil {
			cmp := spec
			cmp.Tracing = false
			cmpExec := newExec(obs.NewRegistry())
			_, _, d, err := series(ph, cmpExec, "experiment.Series.collect_untraced", id, cmp, n)
			if err != nil {
				return out, 0, err
			}
			plain += d
			comparisonTime += d
		}

		sp := ph.tr.begin("trace.BuildProfile", id, 0, -1)
		profile := trace.BuildProfile(traces)
		ph.tr.end(sp)
		sp = ph.tr.begin("trace.WorstCase", id, 0, -1)
		worst, _, err := trace.WorstCase(traces)
		ph.tr.end(sp)
		if !ph.op(err, "trace.WorstCase") {
			return out, 0, err
		}
		sp = ph.tr.begin("core.Refine", id, 0, -1)
		refined := core.Refine(worst, profile)
		ph.tr.end(sp)
		sp = ph.tr.begin("core.Generate", id, 0, -1)
		cfg := core.Generate(refined, injectImproved)
		ph.tr.end(sp)
		out.configs = append(out.configs, cfg)
		configEvents += uint64(cfg.NumEvents())

		for _, model := range experiment.Models {
			for _, strat := range mitigate.Columns() {
				base := experiment.Spec{
					Platform: p, Workload: w.specs[pi], Model: model, Strategy: strat,
					Seed: experiment.SeedFor(seed, "ibase", injectWorkload, model, strat.Name()),
				}
				times, _, _, err := series(ph, exec, "experiment.Series.baseline", id, base, n)
				if err != nil {
					return out, 0, err
				}
				out.table = append(out.table, times)
				inj := base
				inj.Inject = cfg
				inj.Seed = experiment.SeedFor(seed, "inj", injectWorkload, model, strat.Name(),
					fmt.Sprint(injectConfigID))
				times, _, _, err = series(ph, exec, "experiment.Series.inject", id, inj, n)
				if err != nil {
					return out, 0, err
				}
				out.table = append(out.table, times)
				reps, jobs = reps+2*n, jobs+2
			}
		}
	}
	ph.iteration(time.Since(t0)-comparisonTime, reps, jobs)
	ph.addCounts(out.input, reg, map[string]uint64{"core.config_events": configEvents})
	return out, ms(traced-plain) / float64(collectReps), nil
}

func configsJSON(cfgs []*core.Config) ([][]byte, error) {
	var parts [][]byte
	for _, c := range cfgs {
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			return nil, err
		}
		parts = append(parts, buf.Bytes())
	}
	return parts, nil
}

func (w *injectPipeline) check(ph *phase, c *checker) {
	var inputs []int
	var tables, configs []string
	var parts [][][]byte
	for _, o := range w.outs {
		p, err := configsJSON(o.configs)
		if err != nil {
			c.run("encoding configs", func() error { return err })
			return
		}
		inputs = append(inputs, o.input)
		parts = append(parts, p)
		tables = append(tables, timesDigest(o.table))
		configs = append(configs, bytesDigest(p))
	}
	c.run("inject-pipeline tables repeat per input", func() error {
		return checkSameByInput("table", inputs, tables)
	})
	c.run("inject-pipeline configs repeat per input", func() error {
		return checkSameByInput("config", inputs, configs)
	})
	for _, i := range firstPerInput(inputs) {
		seed := inputSeed(w.seed, inputs[i])
		if seed == defaultSeed {
			c.run("inject-pipeline table matches the pinned digest", func() error {
				return checkDigest("table", tables[i], w.pinned["table"])
			})
			c.run("inject-pipeline configs match the pinned digest", func() error {
				return checkDigest("config", configs[i], w.pinned["config"])
			})
		}
		for pi, p := range w.plats {
			c.run(fmt.Sprintf("composed pipeline equals BuildConfigExec on %s, seed %d", p.Name, seed), func() error {
				cfg, _, err := experiment.BuildConfigExec(context.Background(),
					experiment.Executor{Parallelism: parallelism}, p, injectWorkload,
					experiment.ConfigSource{Model: "omp", Strategy: mitigate.Rm, ID: injectConfigID},
					w.reps[pi], injectImproved, seed)
				if err != nil {
					return err
				}
				want, err := configsJSON([]*core.Config{cfg})
				if err != nil {
					return err
				}
				return checkBytes("config", parts[i][pi], want[0])
			})
		}
	}
}
