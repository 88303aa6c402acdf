package main

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/sim"
)

// stream-baseline runs untraced baseline series of babelstream and minife,
// both models, under Rm and TPHK on intel-9700kf. Its reps are long and
// memory-bound (~95k engine events per babelstream-sycl rep), so nearly
// all CPU goes to sim, cpusched, omprt/syclrt and machine; there is no
// tracing or injection and little per-rep set-up.

const streamPlatform = "intel-9700kf"

// streamReps is the rep count per cell by model. A SYCL rep costs about
// five OpenMP reps, so every cell takes about the same host time and job
// latencies have one mode; 4 is the batching threshold, so every cell runs
// batched.
var streamReps = map[string]int{"omp": 20, "sycl": 4}

var (
	streamWorkloads  = []string{"babelstream", "minife"}
	streamStrategies = []mitigate.Strategy{mitigate.Rm, mitigate.TPHK}
)

type streamBaseline struct {
	seed   uint64
	pinned map[string]string
	cells  [][]experiment.Spec // per input
	outs   []streamOutput
}

// streamOutput is one iteration's rep times, per cell.
type streamOutput struct {
	input int
	times [][]sim.Time
}

func (w *streamBaseline) setup(seed uint64) error {
	pinned, err := loadPinned()
	if err != nil {
		return err
	}
	*w = streamBaseline{seed: seed, pinned: pinned["stream-baseline"]}
	p, err := platform.New(streamPlatform)
	if err != nil {
		return err
	}
	w.cells = make([][]experiment.Spec, seedCycle)
	for in := range w.cells {
		s := inputSeed(seed, in)
		for _, name := range streamWorkloads {
			spec, err := p.WorkloadSpec(name)
			if err != nil {
				return err
			}
			for _, model := range experiment.Models {
				for _, strat := range streamStrategies {
					w.cells[in] = append(w.cells[in], experiment.Spec{
						Platform: p, Workload: spec, Model: model, Strategy: strat,
						Seed: experiment.SeedFor(s, "stream-baseline", name, model, strat.Name()),
					})
				}
			}
		}
	}
	return nil
}

func (w *streamBaseline) teardown() {}

func (w *streamBaseline) run(ph *phase) error {
	for it := 0; ph.more(it); it++ {
		id := iterID(it)
		in := it % seedCycle
		reg := ph.registry()
		exec := newExec(reg)
		t0 := time.Now()
		out := streamOutput{input: in}
		reps := 0
		for _, cell := range w.cells[in] {
			times, _, _, err := series(ph, exec, "experiment.Series.baseline", id, cell, streamReps[cell.Model])
			if err != nil {
				break
			}
			out.times = append(out.times, times)
			reps += len(times)
		}
		if len(out.times) < len(w.cells[in]) {
			continue
		}
		ph.iteration(time.Since(t0), reps, len(out.times))
		ph.addCounts(in, reg, nil)
		w.outs = append(w.outs, out)
	}
	if ph.tr != nil {
		ph.layer["experiment.baseline_s"] = median(perIDSeconds(ph.tr, "experiment.Series.baseline"))
	}
	return nil
}

func (w *streamBaseline) check(ph *phase, c *checker) {
	var inputs []int
	var digests []string
	for _, o := range w.outs {
		inputs = append(inputs, o.input)
		digests = append(digests, timesDigest(o.times))
	}
	c.run("stream-baseline times repeat per input", func() error {
		return checkSameByInput("times", inputs, digests)
	})
	for _, i := range firstPerInput(inputs) {
		in := inputs[i]
		if inputSeed(w.seed, in) == defaultSeed {
			c.run("stream-baseline times match the pinned digest", func() error {
				return checkDigest("times", digests[i], w.pinned["times"])
			})
		}
		// One batched rep per cell, chosen by the seed, must equal the
		// same rep run fresh.
		for ci, cell := range w.cells[in] {
			k := int(experiment.SeedFor(cell.Seed, "sample") % uint64(streamReps[cell.Model]))
			c.run(fmt.Sprintf("stream-baseline input %d cell %d rep %d equals a fresh RunOnce", in, ci, k), func() error {
				s := cell
				s.Seed = experiment.SeedAt(cell.Seed, k)
				res, err := experiment.RunOnce(s)
				if err != nil {
					return err
				}
				if got := w.outs[i].times[ci][k]; got != res.ExecTime {
					return fmt.Errorf("batched rep %v, fresh rep %v", got, res.ExecTime)
				}
				return nil
			})
		}
	}
}
