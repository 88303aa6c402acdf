package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/service"
	"repro/internal/sim"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100..1
	}
	v, beyond := percentile(xs, 90)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if got, err := tail(xs, 90); err != nil || got != 90 {
		t.Fatalf("tail(p90) of 100 samples = %v, %v", got, err)
	}
	if _, err := tail(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := tail(xs, 99); err == nil {
		t.Fatal("p99 of 100 samples must be refused")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(benchWorkloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	compare := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef, reported map[string]metric) {
		if len(listed) != len(defs) || len(reported) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d, benchmark defines %d and reports %d",
				kind, len(listed), len(defs), len(reported))
		}
		for i, m := range listed {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if r, ok := reported[m.Name]; !ok || r.Unit != m.Unit {
				t.Errorf("%s: %s reported as %+v", kind, m.Name, r)
			}
		}
	}
	ph := &phase{jobMs: make([]float64, 200), layer: map[string]float64{}}
	compare("end_to_end", b.EndToEnd, endToEndMetrics, endToEnd(ph, 1, &checker{}))
	compare("per_layer", b.PerLayer, perLayerMetrics, perLayer(ph, ph))
}

func TestPerturbedOutputsFailChecks(t *testing.T) {
	table := [][]sim.Time{{1000, 2000, 3000}, {4000, 5000}}
	pinned := timesDigest(table)
	if err := checkDigest("times", timesDigest(table), pinned); err != nil {
		t.Fatal(err)
	}
	table[1][0]++
	if checkDigest("times", timesDigest(table), pinned) == nil {
		t.Fatal("a perturbed rep time passed the digest check")
	}
	perturbed := timesDigest(table)
	if err := checkSameByInput("times", []int{0, 1, 0, 1}, []string{pinned, perturbed, pinned, perturbed}); err != nil {
		t.Fatal(err)
	}
	if checkSameByInput("times", []int{0, 1, 0}, []string{pinned, pinned, perturbed}) == nil {
		t.Fatal("a repeated input with a different output passed the determinism check")
	}

	ref, err := os.ReadFile("../" + analyzeReference)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), ref...)
	if err := checkBytes("artifact", got, ref); err != nil {
		t.Fatal(err)
	}
	got[len(got)/2] ^= 1
	if checkBytes("artifact", got, ref) == nil {
		t.Fatal("a perturbed artifact passed the byte-equality check")
	}
	// A rep time changed consistently inside the artifact still decodes
	// and round-trips, but no longer matches a rerun of its cell.
	art, err := analyze.Decode(ref)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range art.Curves {
		for pi := range art.Curves[ci].Points {
			art.Curves[ci].Points[pi].TimesNs[0]++
		}
	}
	bent, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	spec := analyze.Spec{Platform: "a64fx-reserved", Workload: "logwriter", Model: "omp",
		Strategy: "Rm", Seed: defaultSeed, Reps: analyzeReps}
	if checkArtifact(spec, bent) == nil {
		t.Fatal("an artifact with a perturbed rep time passed the rerun check")
	}

	job := service.JobSpec{Platform: "tiny-test", Workload: "nbody", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 7, Reps: 2}
	want, err := localResult(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBytes("result", want, want); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), want...)
	bad[len(bad)-2] ^= 1
	if checkBytes("result", bad, want) == nil {
		t.Fatal("a perturbed result passed the recomputation check")
	}
	record := func(data []byte, cached bool) *jobRecord {
		return &jobRecord{n: 3, cached: cached, sum: sha256.Sum256(data), size: len(data)}
	}
	orig := record(want, false)
	if err := checkResubmit(orig, record(want, true)); err != nil {
		t.Fatal(err)
	}
	if checkResubmit(orig, record(bad, true)) == nil {
		t.Fatal("a perturbed resubmit result passed")
	}
	if checkResubmit(orig, record(want, false)) == nil {
		t.Fatal("an uncached resubmit passed")
	}
}

func TestJobPlanDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64, round, client int) []plannedJob {
		p := newJobPlan(seed, round, client)
		out := make([]plannedJob, 400)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a := draw(42, 0, 0)
	if !reflect.DeepEqual(a, draw(42, 0, 0)) {
		t.Fatal("the same seed, round and client drew different job streams")
	}
	if reflect.DeepEqual(a, draw(43, 0, 0)) || reflect.DeepEqual(a, draw(42, 1, 0)) || reflect.DeepEqual(a, draw(42, 0, 1)) {
		t.Fatal("another seed, round or client drew the same job stream")
	}
	kinds := map[jobKind]int{}
	fresh := map[int]bool{}
	for i, j := range a {
		kinds[j.kind]++
		if j.kind != kindResubmit {
			fresh[i] = true
			if err := j.spec.Validate(0); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			continue
		}
		if !fresh[j.ref] || j.ref >= i || i-j.ref > 4*serveRecent {
			t.Fatalf("job %d resubmits job %d, which is not a recent fresh job", i, j.ref)
		}
	}
	for k := kindKernel; k <= kindResubmit; k++ {
		if kinds[k] < len(a)/20 {
			t.Fatalf("kind %s drawn %d times of %d", kindNames[k], kinds[k], len(a))
		}
	}
}

func TestCountsAgree(t *testing.T) {
	a := map[string]uint64{"repro_sim_steps_total": 10, "core.config_events": 3}
	b := map[string]uint64{"repro_sim_steps_total": 10, "core.config_events": 4}
	if err := countsAgree([]int{0, 1, 0, 1}, []map[string]uint64{a, b, a, b}); err != nil {
		t.Fatal(err)
	}
	if countsAgree([]int{0, 1, 0}, []map[string]uint64{a, b, b}) == nil {
		t.Fatal("differing exact counts of one input passed")
	}
	if countsAgree([]int{0, 1}, []map[string]uint64{a, a}) == nil {
		t.Fatal("counts cannot agree when no input ran twice")
	}
}

func TestLedgerSelfTimeAndClosure(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	tr.t0 = t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("analyze.Run", "it0", 0, -1, at(0), at(90))
	tr.add("experiment.Series.sweep", "it0", 0, 0, at(0), at(30))
	tr.add("experiment.Series.sweep", "it0", 0, 0, at(30), at(80))
	tr.add("analyze.Encode", "it0", 0, -1, at(90), at(96))

	rows := map[string]ledgerRow{}
	for _, r := range tr.ledger() {
		rows[r.Name] = r
	}
	if r := rows["analyze.Run"]; r.TotalMs != 90 || r.SelfMs != 10 {
		t.Fatalf("analyze.Run total %v self %v, want 90 and 10", r.TotalMs, r.SelfMs)
	}
	if r := rows["experiment.Series.sweep"]; r.Calls != 2 || r.SelfMs != 80 {
		t.Fatalf("sweep calls %d self %v, want 2 and 80", r.Calls, r.SelfMs)
	}
	if err := tr.closure(100 * time.Millisecond); err != nil {
		t.Fatalf("96%% coverage refused: %v", err)
	}
	if tr.closure(110*time.Millisecond) == nil {
		t.Fatal("87% coverage accepted")
	}
}

func TestFailedOpInAnyPhaseMakesResultIncorrect(t *testing.T) {
	plain, traced := &phase{}, &phase{}
	plain.op(nil, "untraced op")
	traced.op(fmt.Errorf("injected failure"), "traced op")
	c := &checker{}
	c.run("passing check", func() error { return nil })

	var res result
	res.tally(c, plain)
	if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
		t.Fatalf("untraced only: %+v, want correct with 2 attempted", res)
	}
	res.tally(c, plain, traced)
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Fatalf("with the traced phase: %+v, want incorrect with 1 of 3 failed", res)
	}
	c.run("failing check", func() error { return fmt.Errorf("mismatch") })
	res.tally(c, plain)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("with a failed check: %+v, want incorrect", res)
	}
}
