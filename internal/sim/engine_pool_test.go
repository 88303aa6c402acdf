package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEnginePendingExact verifies Pending() counts live timers exactly:
// cancelled entries still waiting in the queue as zombies are not counted.
func TestEnginePendingExact(t *testing.T) {
	e := NewEngine()
	var tms []*Timer
	for i := 0; i < 10; i++ {
		at := Time(10 * (i + 1))
		tms = append(tms, e.At(at, func() {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", e.Pending())
	}
	tms[2].Cancel()
	tms[7].Cancel()
	if e.Pending() != 8 {
		t.Fatalf("Pending() after 2 cancels = %d, want 8 (no zombie entries)", e.Pending())
	}
	e.RunUntil(40) // fires 10, 20, 40 (30 was cancelled)
	if e.Pending() != 5 {
		t.Fatalf("Pending() after RunUntil(40) = %d, want 5", e.Pending())
	}
	tms[9].Cancel()
	if e.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", e.Pending())
	}
}

// TestEngineCancelFireInterleaved cancels timers from inside callbacks —
// including a same-instant successor — and checks exactly the right ones
// fire.
func TestEngineCancelFireInterleaved(t *testing.T) {
	e := NewEngine()
	fired := map[int]bool{}
	mark := func(id int) func() { return func() { fired[id] = true } }
	t1 := e.At(10, mark(1))
	var t3, t4 *Timer
	e.At(10, func() {
		fired[2] = true
		t3.Cancel() // same-instant successor: must not fire
		t4.Cancel() // later timer
	})
	t3 = e.At(10, mark(3))
	t4 = e.At(30, mark(4))
	t5 := e.At(40, mark(5))
	e.Run()
	if !fired[1] || !fired[2] || !fired[5] {
		t.Fatalf("expected timers did not fire: %v", fired)
	}
	if fired[3] || fired[4] {
		t.Fatalf("cancelled timers fired: %v", fired)
	}
	if t1.Pending() || t5.Pending() {
		t.Fatal("fired timers still pending")
	}
	if e.Steps != 3 {
		t.Fatalf("Steps = %d, want 3 (cancelled events are not steps)", e.Steps)
	}
}

// TestEngineTimerReuse checks the free list actually recycles timer structs
// and recycled timers behave like fresh ones.
func TestEngineTimerReuse(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 1000; i++ {
		e.After(Time(i), func() { count++ })
	}
	e.Run()
	if count != 1000 {
		t.Fatalf("count = %d", count)
	}
	if len(e.free) == 0 {
		t.Fatal("free list empty after run: timers are not pooled")
	}
	// Steady-state schedule/fire cycles must not allocate timers.
	allocs := testing.AllocsPerRun(100, func() {
		e.After(1, func() {})
		e.Step()
	})
	if allocs > 1 { // the closure itself may allocate; the Timer must not
		t.Fatalf("schedule/fire allocates %.1f objects per cycle", allocs)
	}
}

// Property: with random schedule times and a random subset cancelled (some
// from inside callbacks), exactly the uncancelled timers fire, in
// (time, schedule-order) sequence — exercising push/popMin/removeAt of the
// 4-ary heap together.
func TestEngineHeapRemoveProperty(t *testing.T) {
	f := func(seed int64, delays []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		tms := make([]*Timer, len(delays))
		cancelled := make([]bool, len(delays))
		for i, d := range delays {
			i, at := i, Time(d)
			tms[i] = e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		// Cancel ~1/3 up front.
		for i := range tms {
			if rng.Intn(3) == 0 {
				cancelled[i] = tms[i].Cancel()
			}
		}
		// And one more from inside the earliest surviving callback.
		e.Run()
		want := 0
		for i := range tms {
			if !cancelled[i] {
				want++
			}
		}
		if len(fired) != want {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRunUntilSingleTraversal pins the satellite behaviour: RunUntil
// inspects the heap top once per event (no peek-then-pop double traversal)
// and stops exactly at the deadline.
func TestEngineRunUntilSingleTraversal(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 15, 25} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(15)
	if len(fired) != 3 || e.Now() != 15 {
		t.Fatalf("fired %v now %v, want 3 events and now=15", fired, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunUntil(25)
	if len(fired) != 4 || e.Now() != 25 {
		t.Fatalf("fired %v now %v", fired, e.Now())
	}
}
