package sim

import (
	"fmt"
	"testing"
)

// FuzzRescheduleEqualsCancelAt runs one random op sequence on twin engines:
// one moves timers with Reschedule, the other cancels them and schedules a
// fresh one with At. Reschedule's contract is that the two are
// indistinguishable, so after every op both must agree on the callbacks
// fired and their order, Now, Steps, Pending, the scheduling sequence, and
// every Cancel's result. Callbacks schedule, move and cancel timers
// themselves, and small time deltas make same-instant keys common.
func FuzzRescheduleEqualsCancelAt(f *testing.F) {
	f.Add([]byte{0, 3, 6, 1, 9, 2, 3, 4, 21, 2, 4, 7, 5, 5})
	f.Add([]byte{0, 0, 6, 0, 12, 0, 3, 0, 9, 1, 15, 1, 4, 0, 5, 5, 5, 5})
	f.Add([]byte{0, 5, 3, 2, 6, 0, 20, 1, 6, 0, 4, 9, 3, 7, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		a := &twin{eng: NewEngine(), move: true}
		b := &twin{eng: NewEngine()}
		for i := 0; i+1 < len(ops); i += 2 {
			op, slot, d := int(ops[i]%7), int(ops[i]/7)%twinSlots, Time(ops[i+1]%8)
			a.op(op, slot, d)
			b.op(op, slot, d)
			if err := a.diff(b); err != nil {
				t.Fatalf("after op %d (%d slot %d +%d): %v", i/2, op, slot, d, err)
			}
		}
		a.eng.Run()
		b.eng.Run()
		if err := a.diff(b); err != nil {
			t.Fatalf("after final Run: %v", err)
		}
	})
}

const twinSlots = 4

// twin drives one engine of the differential pair. Slots hold the handles
// of the timers it scheduled; a handle is dropped when its timer fires or
// is cancelled, as the Timer contract requires.
type twin struct {
	eng    *Engine
	move   bool // Reschedule (true) or Cancel then At (false)
	tms    [twinSlots]*Timer
	ids    [twinSlots]int
	nextID int
	log    []string
	snap   *Snapshot
}

func (w *twin) op(op, slot int, d Time) {
	e := w.eng
	switch op {
	case 0:
		if w.tms[slot] == nil {
			w.tms[slot] = e.At(e.Now()+d, w.callback(slot))
		}
	case 1:
		if w.tms[slot] == nil {
			w.tms[slot] = e.After(d, w.callback(slot))
		}
	case 2:
		w.log = append(w.log, fmt.Sprintf("cancel %d: %v", slot, w.tms[slot].Cancel()))
		w.tms[slot] = nil
	case 3:
		fn := w.callback(slot)
		if w.move {
			w.tms[slot] = e.Reschedule(w.tms[slot], e.Now()+d, fn)
		} else {
			w.tms[slot].Cancel()
			w.tms[slot] = e.At(e.Now()+d, fn)
		}
	case 4:
		e.RunUntil(e.Now() + d)
	case 5:
		e.Step()
	case 6:
		switch {
		case e.Pending() == 0:
			s := e.Snapshot()
			w.snap = &s
		case w.snap != nil:
			e.Fork(*w.snap)
			w.tms = [twinSlots]*Timer{}
		}
	}
}

// callback returns the function for a new event in slot. Its id is the
// scheduling order across both timers and callbacks, equal on both twins.
func (w *twin) callback(slot int) func() {
	id := w.nextID
	w.nextID++
	w.ids[slot] = id
	return func() {
		if w.ids[slot] == id {
			w.tms[slot] = nil
		}
		w.log = append(w.log, fmt.Sprintf("fire %d at %d", id, w.eng.Now()))
		// Nested ops: move another slot's timer to this very instant, or
		// cancel one, from inside the event loop.
		switch id % 5 {
		case 0:
			w.op(3, (id+1)%twinSlots, 0)
		case 2:
			w.op(2, (id+3)%twinSlots, 0)
		case 3:
			if id < 64 {
				w.op(0, (id+2)%twinSlots, Time(id%3))
			}
		}
	}
}

func (w *twin) diff(o *twin) error {
	a, b := w.eng, o.eng
	switch {
	case fmt.Sprint(w.log) != fmt.Sprint(o.log):
		return fmt.Errorf("event logs differ:\n  reschedule:   %v\n  cancel+at: %v", w.log, o.log)
	case a.Now() != b.Now():
		return fmt.Errorf("Now %v vs %v", a.Now(), b.Now())
	case a.Steps != b.Steps:
		return fmt.Errorf("Steps %d vs %d", a.Steps, b.Steps)
	case a.Pending() != b.Pending():
		return fmt.Errorf("Pending %d vs %d", a.Pending(), b.Pending())
	case a.seq != b.seq:
		return fmt.Errorf("seq %d vs %d", a.seq, b.seq)
	}
	return nil
}

func TestRescheduleMovesInPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.At(10, mark("a"))
	tm := e.At(20, mark("b"))
	e.At(30, mark("c"))
	e.At(40, mark("d"))
	if moved := e.Reschedule(tm, 35, mark("b'")); moved != tm {
		t.Fatal("a pending timer should be moved, not replaced")
	}
	if tm.At() != 35 || !tm.Pending() || e.Pending() != 4 {
		t.Fatalf("after move: at %v pending %v, engine pending %d", tm.At(), tm.Pending(), e.Pending())
	}
	// Back to an earlier instant shared with another event: the newer
	// scheduling sequence fires second.
	e.Reschedule(tm, 10, mark("b''"))
	// Past the tail.
	e.Reschedule(e.At(15, mark("x")), 50, mark("e"))
	e.Run()
	if fmt.Sprint(got) != "[a b'' c d e]" {
		t.Fatalf("fire order %v, want [a b'' c d e]", got)
	}
	if st := e.Stats(); st.ZombiePops != 0 || st.Steps != 5 {
		t.Fatalf("stats %+v: a move must leave no zombie", st)
	}
}

func TestRescheduleFallsThroughToAt(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }

	if tm := e.Reschedule(nil, 5, fn); tm == nil || !tm.Pending() {
		t.Fatal("Reschedule(nil) should schedule a new timer")
	}
	e.Run()

	done := e.At(10, fn)
	e.Run()
	if tm := e.Reschedule(done, 15, fn); !tm.Pending() || tm.At() != 15 {
		t.Fatal("Reschedule of a fired timer should schedule a new one")
	}
	e.Run()

	// A cancelled timer behind the head stays a zombie; Reschedule must not
	// revive it but schedule a fresh timer.
	e.At(20, fn)
	cancelled := e.At(25, fn)
	cancelled.Cancel()
	tm := e.Reschedule(cancelled, 30, fn)
	if tm == cancelled || !tm.Pending() || cancelled.Pending() {
		t.Fatal("Reschedule of a cancelled timer should schedule a new one")
	}
	e.Run()
	if fired != 5 || e.Now() != 30 {
		t.Fatalf("fired %d, now %v; want 5 events ending at 30", fired, e.Now())
	}
	if zp := e.Stats().ZombiePops; zp != 1 {
		t.Fatalf("ZombiePops = %d, want 1", zp)
	}
}

func TestReschedulePastPanicsLikeAt(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	tm := e.At(20, func() {})
	want := recoverString(func() { e.At(5, func() {}) })
	if want == "" {
		t.Fatal("At in the past should panic")
	}
	if got := recoverString(func() { e.Reschedule(tm, 5, func() {}) }); got != want {
		t.Fatalf("Reschedule panic %q, want At's %q", got, want)
	}
	// Cancel then At: the cancel has happened by the time At panics.
	if tm.Pending() || e.Pending() != 0 {
		t.Fatalf("timer pending %v, engine pending %d after the panic; want cancelled", tm.Pending(), e.Pending())
	}
	if got := recoverString(func() { e.Reschedule(nil, 5, func() {}) }); got != want {
		t.Fatalf("Reschedule(nil) panic %q, want %q", got, want)
	}
}

func recoverString(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestCancelAtHeadReapsAtOnce checks that cancelling the queue's minimum
// recycles it immediately instead of leaving a zombie, while a cancel
// further back is discarded when it reaches the head.
func TestCancelAtHeadReapsAtOnce(t *testing.T) {
	e := NewEngine()
	head := e.At(10, func() { t.Fatal("cancelled head fired") })
	mid := e.At(20, func() { t.Fatal("cancelled entry fired") })
	e.At(30, func() {})
	mid.Cancel()
	free := len(e.free)
	if !head.Cancel() || len(e.free) != free+1 {
		t.Fatal("cancelling the head should recycle it at once")
	}
	if e.Pending() != 1 || e.tail-e.head != 2 {
		t.Fatalf("pending %d, window %d; want 1 live entry and 1 zombie", e.Pending(), e.tail-e.head)
	}
	e.Run()
	if st := e.Stats(); st.Steps != 1 || st.ZombiePops != 1 {
		t.Fatalf("stats %+v, want 1 step and 1 zombie pop", st)
	}
}
