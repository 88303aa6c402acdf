// Command noisebench is noiselab's benchmark: it runs one named workload
// against the repository's public Go APIs for a fixed wall time, checks the
// workload's outputs, and prints one JSON result line.
//
//	noisebench --workload inject-pipeline --seed 42 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the workload runs twice, untraced and then traced
// (an obs counter registry on every executor plus in-memory spans around
// each layer call), and the result carries the per-layer metrics; spans
// and the per-layer ledger are written under .bench_build/trace/. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"
)

// defaultSeed is the seed the pinned output digests were recorded at; it is
// also the seed of the committed analysis artifact analyze-io reproduces.
const defaultSeed = 42

// Set-up runs setupPasses times per invocation, each pass after setupPause
// of idle time, and setup_s is the median pass. The pause starts every pass
// from the same state, an idle process as at start-up; back-to-back passes
// instead time whatever state the previous pass left the CPU in, and their
// medians differed by up to 2x between runs. setup_s is thus warm set-up:
// process and runtime start-up fall outside every pass.
const (
	setupPasses = 31
	setupPause  = 20 * time.Millisecond
)

// workload is one named benchmark workload.
type workload interface {
	// setup builds everything the timed phase needs (platforms, reference
	// digests, servers) and replaces any state a previous call built.
	setup(seed uint64) error
	// run executes the timed phase until ph.deadline, recording samples and
	// outputs into ph. ph.tr is nil on the untraced run.
	run(ph *phase) error
	// check verifies the outputs run recorded, outside the timed phase.
	check(ph *phase, c *checker)
	// teardown stops whatever setup started.
	teardown()
}

// benchWorkloads maps each workload name to its constructor and the CPUs
// it runs on (GOMAXPROCS; 0 keeps the default, all of them), in the order
// BENCHMARK.json lists them.
var benchWorkloads = []struct {
	name  string
	procs int
	new   func() workload
}{
	{"inject-pipeline", 0, func() workload { return &injectPipeline{} }},
	{"stream-baseline", 0, func() workload { return &streamBaseline{} }},
	{"analyze-io", 0, func() workload { return &analyzeIO{} }},
	// serve-mix runs on one CPU. Each of its jobs crosses about ten
	// goroutine wake-ups between clients, coordinator and daemons; spread
	// over two vCPUs of a shared host, its throughput moved by up to 25%
	// between runs, on one it holds within a few percent.
	{"serve-mix", 1, func() workload { return &serveMix{} }},
}

func newWorkload(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads {
		if w.name == name {
			if w.procs > 0 {
				runtime.GOMAXPROCS(w.procs)
			}
			return w.new(), nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value any    `json:"value"`
	Unit  string `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "noisebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced int) error {
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	length := time.Duration(seconds * float64(time.Second))

	setupS, err := timedSetup(w, seed)
	if err != nil {
		return err
	}
	c := &checker{}
	plain, err := measure(w, length, nil, c)
	if err != nil {
		return err
	}
	var res result
	phases := []*phase{plain}
	if traced == 0 {
		res.Metrics = endToEnd(plain, setupS, c)
	} else {
		if err := w.setup(seed); err != nil {
			return err
		}
		tp, err := measure(w, length, newTracer(), c)
		if err != nil {
			return err
		}
		c.run("exact counts agree between runs", func() error { return countsAgree(tp.inputs, tp.counts) })
		c.run("top-level spans cover the traced wall time", func() error { return tp.tr.closure(tp.wall()) })
		if err := writeTrace(name, seed, tp); err != nil {
			return err
		}
		res.Metrics = perLayer(plain, tp)
		phases = append(phases, tp)
	}
	res.tally(c, phases...)
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations or checks failed", res.Failed, res.Attempted)
	}
	return nil
}

// tally counts the operations of every phase that ran and the output
// checks: a failed operation or check in any of them makes res incorrect.
func (res *result) tally(c *checker, phases ...*phase) {
	res.Attempted, res.Failed = c.attempted, c.failed
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
	}
	res.Correct = res.Failed == 0
}

// timedSetup runs set-up setupPasses times and returns the median pass in
// seconds; the state of the last pass is kept for the timed phase.
func timedSetup(w workload, seed uint64) (float64, error) {
	var passes []float64
	for i := 0; i < setupPasses; i++ {
		if i > 0 {
			w.teardown()
		}
		time.Sleep(setupPause)
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	return median(passes), nil
}

// measure runs one timed phase (traced when tr is non-nil), then the
// workload's output checks, then tears the workload down.
func measure(w workload, length time.Duration, tr *tracer, c *checker) (*phase, error) {
	ph := &phase{tr: tr}
	ph.begin(length)
	err := w.run(ph)
	ph.finish()
	if err != nil {
		w.teardown()
		return nil, err
	}
	w.check(ph, c)
	w.teardown()
	return ph, nil
}

// checker counts output checks; a failed check is a failed operation.
type checker struct {
	attempted, failed int
}

func (c *checker) run(what string, f func() error) {
	c.attempted++
	if err := f(); err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "noisebench: check failed: %s: %v\n", what, err)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K { return slices.Sorted(maps.Keys(m)) }
