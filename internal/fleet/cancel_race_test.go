package fleet_test

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// cancelRaceRounds is how many submissions each surface races against a
// spinning canceller: enough that a job visible before it is settled gets
// caught in that window many times over.
const cancelRaceRounds = 20000

// raceCancels submits cached resubmissions while another goroutine spins
// cancel on the ID the next submission will get. A cached job is done at
// submit time, so a cancel that found it must answer done: any other answer
// means the job was visible before it was settled, and the cancel was
// either lost (the job still finished) or counted next to the finish.
func raceCancels(t *testing.T, submit func() string, cancel func(id string) (service.JobState, bool),
	final func(id string) service.JobState) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps for the canceller to run inside a submission")
	}
	var (
		target  atomic.Pointer[string]
		stop    atomic.Bool
		mu      sync.Mutex
		answers = map[string]service.JobState{} // id -> first non-done answer
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			id := target.Load()
			if id == nil {
				continue
			}
			if st, ok := cancel(*id); ok && st != service.StateDone {
				mu.Lock()
				if _, seen := answers[*id]; !seen {
					answers[*id] = st
				}
				mu.Unlock()
			}
		}
	}()
	id := submit()
	prefix, n := id[:1], mustAtoi(t, id[1:])
	for i := 0; i < cancelRaceRounds; i++ {
		next := fmt.Sprintf("%s%06d", prefix, n+1)
		target.Store(&next)
		if id = submit(); id != next {
			t.Fatalf("submission got ID %s, want %s", id, next)
		}
		n++
	}
	stop.Store(true)
	wg.Wait()
	bad := 0
	for id, answer := range answers {
		if end := final(id); end != service.StateCanceled {
			bad++
			if bad <= 3 {
				t.Errorf("job %s: cancel answered %s, job ended %s", id, answer, end)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cancels that raced a submission did not stick", bad, cancelRaceRounds)
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// awaitDone polls a status function until the job is terminal.
func awaitDone(t *testing.T, status func() service.JobState) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !status().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelRacingSubmitDaemon: on noiselabd a cancel racing a cached
// resubmission must not be answered "canceled" for a job that ends done,
// and the state counters must count each job once.
func TestCancelRacingSubmitDaemon(t *testing.T) {
	srv, err := service.New(service.Config{CacheDir: t.TempDir(), JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := conformKernelSpec(21, 2)
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, func() service.JobState { st, _ := srv.Status(first.ID); return st.State })
	submit := func() string {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	final := func(id string) service.JobState { st, _ := srv.Status(id); return st.State }
	raceCancels(t, submit, srv.Cancel, final)
	m := srv.Metrics()
	if m.Done+m.Canceled+m.Failed != m.Submitted {
		t.Fatalf("jobs counted done %d + canceled %d + failed %d, submitted %d",
			m.Done, m.Canceled, m.Failed, m.Submitted)
	}
}

// TestCancelRacingSubmitFleet: on a 1-backend fleet a cancel racing a
// resubmission served from the merged cache must not be answered with a
// live state for a job that then ends done.
func TestCancelRacingSubmitFleet(t *testing.T) {
	_, url := newDaemon(t, 2*time.Minute)
	coord, err := fleet.New(fleet.Config{Backends: []string{url}, JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := conformKernelSpec(22, 2)
	submit := func() string {
		st, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	final := func(id string) service.JobState { st, _ := coord.Status(id); return st.State }
	first := submit()
	awaitDone(t, func() service.JobState { return final(first) })
	raceCancels(t, submit, coord.Cancel, final)
}
