package sim

import "fmt"

// Timer is a scheduled callback. It can be cancelled before it fires, or
// moved to another instant with Engine.Reschedule.
//
// Timer structs are pooled: once a timer has fired or been cancelled the
// engine may recycle it for a later At/After call. A handle therefore must
// not be retained past its callback or its cancellation — holders that
// store a *Timer clear or reassign the reference when the callback runs
// (every in-tree holder does so as the first statement of its callback)
// and when they cancel it. Cancel, Pending and Reschedule on a handle
// whose timer already fired or was cancelled remain safe only until the
// struct is reused.
//
// Each struct is allocated once and keeps its slot idx in the engine's
// timer table for life; queue entries name the timer by that slot, never
// by pointer.
type Timer struct {
	at     Time
	seq    uint64
	fn     func()
	idx    int32
	queued bool
	zombie bool
	eng    *Engine
}

// At returns the simulated instant the timer fires at.
func (t *Timer) At() Time { return t.at }

// Cancel prevents the timer from firing. It is O(1): an entry at the queue
// head is popped and recycled at once, and any other entry stays in the
// queue as a zombie that is discarded (without firing) when it reaches the
// head. The head case is the common one for a timer armed for the current
// instant and abandoned in the same callback. A caller that cancels only
// to schedule the same holder again should use Engine.Reschedule, which
// leaves no zombie behind. Cancelling an already-fired or already-cancelled
// timer is a no-op. It reports whether the timer was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || !t.queued || t.zombie {
		return false
	}
	e := t.eng
	if e.keys[e.head].idx == t.idx {
		e.release(e.popMin())
		return true
	}
	t.zombie = true
	e.zombies++
	return true
}

// Pending reports whether the timer is scheduled and not cancelled.
func (t *Timer) Pending() bool { return t != nil && t.queued && !t.zombie }

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, which keeps runs deterministic.
//
// The event queue is a sorted deque of pointer-free entries: keys holds
// {at, seq, idx} in ascending (time, scheduling sequence) order in the
// window [head, tail) of a backing array with slack at both ends, and idx
// names the entry's Timer in the tims table. Because an entry holds no
// pointer, every shift is a plain memmove without GC write barriers and
// the collector never scans the queue.
//
// Popping the minimum is a head increment. An insert searches its position
// (a short scan from the head, then binary) and shifts whichever side of
// the window is shorter; the dominant patterns — an interrupt-end event
// that is or is nearly the new minimum, a periodic loop's next tick that is
// the new maximum — land at or next to the window's edges and shift little
// or nothing. Reschedule moves a pending entry in place: it binary-searches
// the old slot by its unique (at, seq) key and slides the entry to its new
// slot, shifting only the entries in between. A cancel pops an entry that
// is at the head and marks any other a zombie that the pop path discards.
// Rescheduling rather than cancelling is what keeps the window small: the
// CPU scheduler re-times every running memory-bound task's completion
// whenever the number of memory streams changes, and as cancel-plus-insert
// that left one zombie per re-time.
type Engine struct {
	now  Time
	keys []timerKey // ascending in [head, tail)
	head int
	tail int
	// tims is every Timer struct this engine has allocated, indexed by
	// Timer.idx; free lists the idx of recycled ones, so steady-state event
	// flow does not allocate.
	tims []*Timer
	free []int32
	seq  uint64
	// zombies counts cancelled entries still occupying queue slots; they
	// are discarded when popped. Pending subtracts them, so the live count
	// stays exact.
	zombies int
	// zombiePops counts cancelled entries discarded at the head since
	// construction (Fork does not rewind it).
	zombiePops uint64
	// Steps counts processed events, for diagnostics and runaway detection
	// in tests.
	Steps uint64
	// TimerAllocs counts Timer structs allocated because the free pool was
	// empty — the engine-side "copy on first write" count of a forked rep.
	// A warm engine runs a rep without growing it.
	TimerAllocs uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at simulated time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	var tm *Timer
	if n := len(e.free); n > 0 {
		tm = e.tims[e.free[n-1]]
		e.free = e.free[:n-1]
	} else {
		tm = e.newTimer()
	}
	tm.at, tm.seq, tm.fn = t, e.seq, fn
	e.push(tm)
	return tm
}

// newTimer allocates a Timer struct and gives it the next slot. The table
// and the free list grow together, so release never reallocates.
func (e *Engine) newTimer() *Timer {
	if len(e.tims) == cap(e.tims) {
		n := max(64, 2*cap(e.tims))
		e.tims = append(make([]*Timer, 0, n), e.tims...)
		e.free = append(make([]int32, 0, n), e.free...)
	}
	tm := &Timer{eng: e, idx: int32(len(e.tims))}
	e.tims = append(e.tims, tm)
	e.TimerAllocs++
	return tm
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Reschedule moves tm to fire fn at t and returns the timer now carrying
// the event. It is observably tm.Cancel() followed by e.At(t, fn): it
// consumes one scheduling sequence number exactly as At does, panics on a
// past t with At's message, and falls through to At when tm is nil, fired
// or cancelled. A pending tm, though, is moved in place — same struct,
// new key — so no zombie entry is left in the queue.
func (e *Engine) Reschedule(tm *Timer, t Time, fn func()) *Timer {
	if !tm.Pending() || t < e.now {
		tm.Cancel()
		return e.At(t, fn)
	}
	e.seq++
	old := timerKey{at: tm.at, seq: tm.seq, idx: tm.idx}
	tm.at, tm.seq, tm.fn = t, e.seq, fn
	e.move(old, timerKey{at: t, seq: e.seq, idx: tm.idx})
	return tm
}

// Pending returns the number of live (scheduled, uncancelled) events.
// Cancelled entries still occupying queue slots are subtracted, so this is
// an exact count, never an overcount.
func (e *Engine) Pending() int { return e.tail - e.head - e.zombies }

// Stats is a snapshot of engine-level counters, feeding the observability
// registry (internal/obs) at end of run.
type Stats struct {
	// Steps is the number of events processed so far.
	Steps uint64
	// Pending is the live event-queue depth.
	Pending int
	// ZombiePops is the number of cancelled entries discarded at the queue
	// head since engine construction. Each one cost a queue slot, shifts
	// and a pop without firing; ZombiePops/(ZombiePops+Steps) is the share
	// of pops wasted on them.
	ZombiePops uint64
	// FreeTimers is the recycled-Timer pool size — how deep the event flow
	// ran without allocating.
	FreeTimers int
	// TimerAllocs is the number of Timer structs allocated because the free
	// pool was empty (pool misses since engine construction).
	TimerAllocs uint64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{Steps: e.Steps, Pending: e.Pending(), ZombiePops: e.zombiePops,
		FreeTimers: len(e.free), TimerAllocs: e.TimerAllocs}
}

// Snapshot captures the engine's position — clock, scheduling sequence, and
// step count — so a later Fork can rewind to it. Only quiescent positions
// (no pending events) are forkable: a pending callback closes over
// simulation state the snapshot cannot reproduce, so Fork from a
// non-quiescent snapshot panics.
type Snapshot struct {
	now     Time
	seq     uint64
	steps   uint64
	pending int
}

// Snapshot records the engine's current position.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{now: e.now, seq: e.seq, steps: e.Steps, pending: e.Pending()}
}

// Fork rewinds the engine to a quiescent snapshot: every pending timer is
// cancelled wholesale (the structs return to the free pool, so the next
// rep's event flow starts warm and allocation-free), and the clock,
// sequence counter, and step counter are restored. Holders of *Timer
// handles must drop them — the structs are recycled.
func (e *Engine) Fork(s Snapshot) {
	if s.pending != 0 {
		panic("sim: Fork from a snapshot with pending events")
	}
	for _, k := range e.keys[e.head:e.tail] {
		e.release(e.tims[k.idx])
	}
	e.head, e.tail, e.zombies = len(e.keys)/2, len(e.keys)/2, 0
	e.now, e.seq, e.Steps = s.now, s.seq, s.steps
}

// release returns a fired or discarded timer to the free list.
func (e *Engine) release(tm *Timer) {
	tm.fn = nil
	tm.queued, tm.zombie = false, false
	e.free = append(e.free, tm.idx)
}

// Step processes the next event. It reports false when the queue is empty.
// Cancelled entries reaching the head are discarded without firing (and
// without counting as a step).
func (e *Engine) Step() bool {
	for e.head != e.tail {
		tm := e.popMin()
		if tm.zombie {
			e.discard(tm)
			continue
		}
		e.now = tm.at
		e.Steps++
		tm.fn()
		e.release(tm)
		return true
	}
	return false
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t (even if no event fired exactly at t). The deadline check and the pop
// are a single queue-head inspection per event, not a peek-then-pop pair.
func (e *Engine) RunUntil(t Time) {
	for e.head != e.tail && e.keys[e.head].at <= t {
		tm := e.popMin()
		if tm.zombie {
			e.discard(tm)
			continue
		}
		e.now = tm.at
		e.Steps++
		tm.fn()
		e.release(tm)
	}
	if e.now < t {
		e.now = t
	}
}

// RunWhile processes events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// discard recycles a cancelled entry popped from the head.
func (e *Engine) discard(tm *Timer) {
	e.zombies--
	e.zombiePops++
	e.release(tm)
}

// ---- sorted-deque event queue ----

// timerKey is one queue entry: the ordering key (at, seq) plus the idx of
// its Timer in Engine.tims. It holds no pointer, so the backing array is
// plain memory to the garbage collector.
type timerKey struct {
	at  Time
	seq uint64
	idx int32
}

func keyLess(a, b timerKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(tm *Timer) {
	key := timerKey{at: tm.at, seq: tm.seq, idx: tm.idx}
	tm.queued = true
	if e.tail == len(e.keys) {
		// Pops only ever advance head, so a long-lived window drifts right;
		// slide it back to the middle so the append-at-tail fast path below
		// stays open. Grow instead once the window fills half the array:
		// recentering then would leave so little slack that the next few
		// pushes copy the whole window again.
		if 2*(e.tail-e.head) >= len(e.keys) {
			e.grow()
		} else {
			e.recenter()
		}
	}
	// Fast paths first: the new maximum appends at the tail, the new
	// minimum prepends at the head. Between them, shift whichever side of
	// the insertion point is shorter.
	switch {
	case e.head == e.tail || !keyLess(key, e.keys[e.tail-1]):
		e.keys[e.tail] = key
		e.tail++
	case e.head > 0 && keyLess(key, e.keys[e.head]):
		e.head--
		e.keys[e.head] = key
	default:
		p := e.searchNearHead(key)
		if left, right := p-e.head, e.tail-p; e.head > 0 && left <= right {
			copy(e.keys[e.head-1:p-1], e.keys[e.head:p])
			e.head--
			p--
		} else {
			copy(e.keys[p+1:e.tail+1], e.keys[p:e.tail])
			e.tail++
		}
		e.keys[p] = key
	}
}

// move replaces the queued entry old with key, which carries the same idx
// and the newest seq. It finds old's slot by binary search, then slides
// key from there toward its new slot one entry at a time, shifting each
// entry it passes by one — an insertion-sort step whose scan costs no more
// than the shift itself, since a re-timed completion lands near where it
// was. The window's bounds do not change.
func (e *Engine) move(old, key timerKey) {
	// key's seq is the newest, so it orders after every entry at the same
	// instant and comparing instants alone suffices.
	p := e.search(old, e.head, e.tail)
	if old.at <= key.at {
		for p+1 < e.tail && e.keys[p+1].at <= key.at {
			e.keys[p] = e.keys[p+1]
			p++
		}
	} else {
		for p > e.head && key.at < e.keys[p-1].at {
			e.keys[p] = e.keys[p-1]
			p--
		}
	}
	e.keys[p] = key
}

// grow reallocates the backing array (doubling, minimum 64 slots) and
// re-centers the window so both ends regain slack.
func (e *Engine) grow() {
	n := e.tail - e.head
	newCap := 2 * len(e.keys)
	if newCap < 64 {
		newCap = 64
	}
	keys := make([]timerKey, newCap)
	head := (newCap - n) / 2
	copy(keys[head:], e.keys[e.head:e.tail])
	e.keys = keys
	e.head, e.tail = head, head+n
}

// recenter slides the window back to the middle of the backing array,
// restoring slack at both ends.
func (e *Engine) recenter() {
	n := e.tail - e.head
	head := (len(e.keys) - n) / 2
	copy(e.keys[head:head+n], e.keys[e.head:e.tail])
	e.head, e.tail = head, head+n
}

func (e *Engine) popMin() *Timer {
	tm := e.tims[e.keys[e.head].idx]
	e.head++
	if e.head == e.tail {
		// Empty: re-center so both ends regain slack.
		e.head, e.tail = len(e.keys)/2, len(e.keys)/2
	}
	tm.queued = false
	return tm
}

// searchNearHead returns the window position where key belongs: the first
// index in [head, tail) whose key is not less than key. It starts with a
// bounded linear scan from the head — measured mid-window inserts
// (interrupt-end and completion events a few entries past the current
// minimum) land well within the bound, where a sequential scan's
// predictable branches beat a binary search's data-dependent ones — and
// falls back to binary search over the remainder for larger windows.
func (e *Engine) searchNearHead(key timerKey) int {
	hi := e.head + 32
	if hi > e.tail {
		hi = e.tail
	}
	for p := e.head; p < hi; p++ {
		if !keyLess(e.keys[p], key) {
			return p
		}
	}
	return e.search(key, hi, e.tail)
}

// search returns the first index in [lo, hi) whose key is not less than
// key, or hi if there is none, by binary search.
func (e *Engine) search(key timerKey, lo, hi int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(e.keys[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
