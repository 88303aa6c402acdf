package workloads

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/parmodel"
)

// shape renders recorded phases compactly: P<n> for a ParallelFor of n
// units, C for MasterCompute, M for MasterMemory, B<bytes> for
// MasterBlockOn.
func shape(phases []parmodel.Phase) string {
	var b strings.Builder
	for _, p := range phases {
		switch p.Kind {
		case parmodel.PhaseParallelFor:
			fmt.Fprintf(&b, "P%d ", p.N)
		case parmodel.PhaseCompute:
			b.WriteString("C ")
		case parmodel.PhaseMemory:
			b.WriteString("M ")
		case parmodel.PhaseBlockOn:
			fmt.Fprintf(&b, "B%g ", p.Amount)
		}
	}
	return b.String()
}

// TestRecordWorkloadPhases pins the phase list every workload body records:
// the straight-line loop structure the runtimes replay.
func TestRecordWorkloadPhases(t *testing.T) {
	const threads = 4
	units := fmt.Sprintf("P%d ", threads*8)
	small := func(name string) Workload {
		w, err := ByName(name, "small")
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var stream strings.Builder
	for it := 0; it < 10; it++ {
		stream.WriteString(strings.Repeat(units, 4) + units + "C ") // copy mul add triad, dot + reduction
	}
	minife := units + strings.Repeat(units+strings.Repeat(units+"C ", 2)+strings.Repeat(units, 3), 15)
	logBatch := float64(128 * (4 << 10))
	for _, tc := range []struct {
		name string
		want string
	}{
		{"nbody", strings.Repeat(units+"C ", 4)},
		{"babelstream", stream.String()},
		{"minife", minife},
		{"schedbench", strings.Repeat("P512 ", 10)},
		{"svcloop", strings.Repeat("P64 ", 8)},
		{"logwriter", strings.Repeat(fmt.Sprintf("P128 B%g B0 ", logBatch), 10)},
	} {
		for _, model := range []string{"omp", "sycl"} {
			got := shape(parmodel.Record(small(tc.name).Body(), model, threads))
			if got != tc.want {
				t.Errorf("%s/%s phases:\n got  %s\n want %s", tc.name, model, got, tc.want)
			}
		}
	}
}

// TestRecordSeesRuntimeName: bodies scale their costs by the runtime name
// (syclScale), so the recorder must report the name it was given.
func TestRecordSeesRuntimeName(t *testing.T) {
	s := DefaultNBodySpec()
	s.Bodies, s.Steps = 1000, 1
	omp := parmodel.Record(s.Body(), "omp", 2)
	sycl := parmodel.Record(s.Body(), "sycl", 2)
	if got, want := sycl[1].Amount/omp[1].Amount, s.SYCLFactor; got != want {
		t.Fatalf("sycl/omp serial cost ratio = %g, want SYCLFactor %g", got, want)
	}
	if got, want := sycl[0].Cost(0).Cycles/omp[0].Cost(0).Cycles, s.SYCLFactor; got != want {
		t.Fatalf("sycl/omp unit cost ratio = %g, want SYCLFactor %g", got, want)
	}
}
