package parmodel

import (
	"testing"
	"testing/quick"
)

func TestCostAdd(t *testing.T) {
	a := Cost{Cycles: 10, Bytes: 5}
	b := Cost{Cycles: 3, Bytes: 7}
	got := a.Add(b)
	if got.Cycles != 13 || got.Bytes != 12 {
		t.Fatalf("Add = %+v", got)
	}
}

func TestCostScale(t *testing.T) {
	c := Cost{Cycles: 10, Bytes: 4}.Scale(2.5)
	if c.Cycles != 25 || c.Bytes != 10 {
		t.Fatalf("Scale = %+v", c)
	}
}

// Property: Add is commutative and Scale distributes over Add.
func TestCostAlgebra(t *testing.T) {
	f := func(ac, ab, bc, bb int16, s uint8) bool {
		a := Cost{Cycles: float64(ac), Bytes: float64(ab)}
		b := Cost{Cycles: float64(bc), Bytes: float64(bb)}
		f := float64(s)
		if a.Add(b) != b.Add(a) {
			return false
		}
		lhs := a.Add(b).Scale(f)
		rhs := a.Scale(f).Add(b.Scale(f))
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordPassesNameAndThreads(t *testing.T) {
	var name string
	var threads int
	Record(func(m Model) { name, threads = m.Name(), m.Threads() }, "sycl", 6)
	if name != "sycl" || threads != 6 {
		t.Fatalf("body saw Name()=%q Threads()=%d, want sycl 6", name, threads)
	}
}

// Record keeps every call in order, as passed: a negative trip count and an
// unknown device are the replaying runtime's to reject, and cost functions
// are not called until the runtime claims a unit.
func TestRecordKeepsCallsInOrderAndCostsLazy(t *testing.T) {
	calls := 0
	cost := func(int) Cost { calls++; return Cost{Cycles: 1} }
	phases := Record(func(m Model) {
		m.ParallelFor(3, cost)
		m.MasterCompute(5)
		m.MasterMemory(7)
		m.MasterBlockOn("disk", 9)
		m.ParallelFor(-1, nil)
	}, "omp", 2)
	want := []Phase{
		{Kind: PhaseParallelFor, N: 3},
		{Kind: PhaseCompute, Amount: 5},
		{Kind: PhaseMemory, Amount: 7},
		{Kind: PhaseBlockOn, Amount: 9, Dev: "disk"},
		{Kind: PhaseParallelFor, N: -1},
	}
	if len(phases) != len(want) {
		t.Fatalf("recorded %d phases, want %d", len(phases), len(want))
	}
	for i, p := range phases {
		w := want[i]
		if p.Kind != w.Kind || p.N != w.N || p.Amount != w.Amount || p.Dev != w.Dev {
			t.Errorf("phase %d = %+v, want %+v", i, p, w)
		}
	}
	if calls != 0 {
		t.Fatalf("Record called the cost function %d times, want 0", calls)
	}
	if c := phases[0].Cost(2); c.Cycles != 1 || calls != 1 {
		t.Fatalf("recorded cost function = %+v after %d calls", c, calls)
	}
}
