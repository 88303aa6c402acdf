package sim

import (
	"fmt"
	"testing"
)

// Engine microbenchmarks: the event loop is the innermost layer of every
// simulated run, so per-event costs here multiply through the whole
// evaluation harness. `make bench` records these in BENCH_kernel.json.

// BenchmarkEngineEventThroughput measures raw schedule+fire cost with a
// self-rescheduling timer chain (the noise-generator pattern) over a heap
// that stays ~1k entries deep.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	const depth = 1024
	var tick func()
	n := 0
	tick = func() {
		n++
		e.After(depth, tick)
	}
	for i := 0; i < depth; i++ {
		e.After(Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineRunUntil measures the combined deadline-check-and-pop loop
// (one heap-top inspection per event).
func BenchmarkEngineRunUntil(b *testing.B) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(10, tick) }
	for i := 0; i < 64; i++ {
		e.After(Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 100)
	}
}

// BenchmarkEngineCancel measures schedule+cancel cycles — the slice-timer
// and completion-timer churn pattern in the CPU scheduler. Each fresh timer
// is the queue's minimum, so its cancel reaps it at the head instead of
// leaving a zombie; the free list keeps the cycle allocation-free.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Background population so cancels hit an interior heap.
	for i := 0; i < 256; i++ {
		e.At(Time(1<<40)+Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(1000, fn)
		tm.Cancel()
	}
}

// BenchmarkEngineReschedule models the CPU scheduler's recalcMemStreams: a
// change in the number of memory streams re-times the completion of every
// running memory-bound task by the ratio of the old to the new bandwidth
// share. One op is one such change over 8 and 48 running tasks (the stream
// count alternating between n-1 and n), followed by one background tick of
// 16 periodic timers (the noise generators) that advances the clock. A
// completion that fires starts the task's next segment.
func BenchmarkEngineReschedule(b *testing.B) {
	for _, n := range []int{8, 48} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			e := NewEngine()
			var tick func()
			tick = func() { e.After(1000, tick) }
			for i := 0; i < 16; i++ {
				e.After(Time(i*61), tick)
			}
			tms := make([]*Timer, n)
			fns := make([]func(), n)
			for j := range tms {
				fns[j] = func() { tms[j] = e.After(Time(20000+j*97), fns[j]) }
				tms[j] = e.After(Time(20000+j*97), fns[j])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				num, den := Time(n-1), Time(n)
				if i%2 == 1 {
					num, den = den, num
				}
				now := e.Now()
				for j, tm := range tms {
					tms[j] = e.Reschedule(tm, now+(tm.At()-now)*num/den, fns[j])
				}
				e.Step()
			}
		})
	}
}
