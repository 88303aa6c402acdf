package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/analyze"
	"repro/internal/experiment"
)

// analyze-io runs analyze.Run of logwriter on a64fx-reserved: 6 noise
// sources x 4 ladder rungs x 5 reps of a blocking-I/O workload on a 50-CPU
// machine. It is the only workload that exercises analyze, the cpusched
// device/BlockOn path, a large topology, and the world pool across many
// distinct specs. At seed 42 its artifact must equal the committed
// results/analysis-io/artifact.json byte for byte.

const (
	analyzeReps      = 5
	analyzeReference = "results/analysis-io/artifact.json"
)

type analyzeIO struct {
	seed      uint64
	specs     []analyze.Spec // per input
	reference []byte
	outs      []analyzeOutput
}

// analyzeOutput is one iteration's encoded artifact.
type analyzeOutput struct {
	input int
	enc   []byte
}

func (w *analyzeIO) setup(seed uint64) error {
	ref, err := os.ReadFile(analyzeReference)
	if err != nil {
		return fmt.Errorf("reading reference artifact: %w", err)
	}
	if _, err := analyze.Decode(ref); err != nil {
		return fmt.Errorf("decoding %s: %w", analyzeReference, err)
	}
	*w = analyzeIO{seed: seed, reference: ref}
	for in := 0; in < seedCycle; in++ {
		spec := analyze.Spec{
			Platform: "a64fx-reserved", Workload: "logwriter", Model: "omp", Strategy: "Rm",
			Seed: inputSeed(seed, in), Reps: analyzeReps,
		}
		if _, err := analyze.SpecHash(&spec); err != nil {
			return err
		}
		if err := spec.Validate(0); err != nil {
			return err
		}
		w.specs = append(w.specs, spec)
	}
	return nil
}

func (w *analyzeIO) teardown() {}

func (w *analyzeIO) run(ph *phase) error {
	for it := 0; ph.more(it); it++ {
		id := iterID(it)
		in := it % seedCycle
		reg := ph.registry()
		exec := experiment.Executor{Parallelism: parallelism}
		if reg != nil {
			exec.Obs = &experiment.ObsOptions{Reg: reg}
		}
		t0 := time.Now()
		runSpan := ph.tr.begin("analyze.Run", id, 0, -1)
		// Every sweep cell is one Series call; a cell ends when the
		// aggregated rep count reaches a multiple of the cell size.
		last, cells := t0, 0
		exec.OnRep = func(done, total int) {
			if done%analyzeReps != 0 {
				return
			}
			now := time.Now()
			ph.job(now.Sub(last))
			ph.tr.add("experiment.Series.sweep", id, 0, runSpan, last, now)
			last = now
			cells++
		}
		out, err := analyze.Run(context.Background(), exec, w.specs[in])
		ph.tr.end(runSpan)
		if !ph.op(err, "analyze.Run") {
			continue
		}
		sp := ph.tr.begin("analyze.Encode", id, 0, -1)
		enc, err := out.Artifact.Encode()
		ph.tr.end(sp)
		if !ph.op(err, "Artifact.Encode") {
			continue
		}
		ph.attempted += cells // each sweep cell is a Series job
		ph.iteration(time.Since(t0), out.Artifact.TotalReps, cells)
		ph.addCounts(in, reg, map[string]uint64{"analyze.reps_per_run": uint64(out.Artifact.TotalReps)})
		w.outs = append(w.outs, analyzeOutput{in, enc})
	}
	if ph.tr != nil {
		ph.layer["analyze.run_s"] = spanMedian(ph.tr, "analyze.Run") / 1000
		ph.layer["analyze.encode_ms"] = spanMedian(ph.tr, "analyze.Encode")
	}
	return nil
}

func (w *analyzeIO) check(ph *phase, c *checker) {
	var inputs []int
	var digests []string
	for _, o := range w.outs {
		inputs = append(inputs, o.input)
		digests = append(digests, bytesDigest([][]byte{o.enc}))
	}
	c.run("analyze-io artifacts repeat per input", func() error {
		return checkSameByInput("artifact", inputs, digests)
	})
	for _, i := range firstPerInput(inputs) {
		spec, enc := w.specs[inputs[i]], w.outs[i].enc
		if spec.Seed == defaultSeed {
			c.run("analyze-io artifact equals "+analyzeReference, func() error {
				return checkBytes("artifact", enc, w.reference)
			})
		}
		c.run(fmt.Sprintf("analyze-io artifact of seed %d is consistent", spec.Seed), func() error {
			return checkArtifact(spec, enc)
		})
	}
}

// checkArtifact decodes an artifact, checks it round-trips and describes
// its spec, and reruns one sweep cell, chosen by the seed, unbatched on one
// worker: the cell's rep times must equal the artifact's.
func checkArtifact(spec analyze.Spec, enc []byte) error {
	art, err := analyze.Decode(enc)
	if err != nil {
		return err
	}
	again, err := art.Encode()
	if err != nil {
		return err
	}
	if err := checkBytes("re-encoded artifact", again, enc); err != nil {
		return err
	}
	hash, err := analyze.SpecHash(&spec)
	if err != nil {
		return err
	}
	if art.SpecHash != hash || art.TotalReps != spec.TotalReps() ||
		len(art.Curves) != len(art.Sources) || len(art.Ranking) != len(art.Sources) {
		return fmt.Errorf("hash %s (want %s), %d total reps (want %d), %d curves and %d ranked of %d sources",
			art.SpecHash, hash, art.TotalReps, spec.TotalReps(), len(art.Curves), len(art.Ranking), len(art.Sources))
	}
	curve := art.Curves[experiment.SeedFor(spec.Seed, "sample-source")%uint64(len(art.Curves))]
	pt := curve.Points[experiment.SeedFor(spec.Seed, "sample-rung")%uint64(len(curve.Points))]
	cell, err := spec.Resolve()
	if err != nil {
		return err
	}
	cell.NoiseSource, cell.SourceScale = curve.Source, pt.Factor
	cell.Seed = analyze.CellSeed(spec.Seed, curve.Source, pt.Factor)
	times, _, err := experiment.Executor{Parallelism: 1, Batch: experiment.BatchOff}.Series(
		context.Background(), cell, spec.Reps)
	if err != nil {
		return err
	}
	if len(times) != len(pt.TimesNs) {
		return fmt.Errorf("%d reps rerun, artifact has %d", len(times), len(pt.TimesNs))
	}
	for i, t := range times {
		if int64(t) != pt.TimesNs[i] {
			return fmt.Errorf("%s x%s rep %d: %d ns, artifact has %d", curve.Source,
				analyze.FormatFactor(pt.Factor), i, int64(t), pt.TimesNs[i])
		}
	}
	return nil
}
