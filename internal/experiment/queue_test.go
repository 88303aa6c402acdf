package experiment

import (
	"testing"

	"repro/internal/mitigate"
	"repro/internal/platform"
)

// maxZombieShare bounds the share of event-queue pops that discard a
// cancelled entry instead of firing one. Re-timing a running task's
// completion by cancel-plus-insert left a zombie per re-time: 69% of pops
// on the babelstream rep below and 92% on the logwriter rep. Moving the
// timer in place leaves zombies only where a timer is really abandoned.
const maxZombieShare = 0.25

// TestEventQueueZombieShare runs one memory-bound rep on an 8-CPU and on
// the 50-CPU machine and bounds the engine's zombie pops. The counter is
// exact, so this guards the event queue's cost where ns/op on a noisy host
// cannot.
func TestEventQueueZombieShare(t *testing.T) {
	cases := []struct{ platform, workload string }{
		{"intel-9700kf", "babelstream"},
		{"a64fx-reserved", "logwriter"},
	}
	for _, c := range cases {
		t.Run(c.platform+"-"+c.workload, func(t *testing.T) {
			p, err := platform.New(c.platform)
			if err != nil {
				t.Fatal(err)
			}
			w, err := p.WorkloadSpec(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Platform: p, Workload: w, Model: "omp", Strategy: mitigate.Rm, Seed: 42}
			plan, err := mitigate.Apply(spec.Strategy, p.Topo)
			if err != nil {
				t.Fatal(err)
			}
			wld := newWorld(worldKeyFor(spec), false)
			if _, err := wld.run(spec, plan); err != nil {
				t.Fatal(err)
			}
			st := wld.batch.Engine().Stats()
			pops := st.Steps + st.ZombiePops
			share := float64(st.ZombiePops) / float64(pops)
			t.Logf("%d pops, %d zombie (%.1f%%)", pops, st.ZombiePops, 100*share)
			if share > maxZombieShare {
				t.Errorf("%.1f%% of event-queue pops discard a cancelled entry, want at most %.0f%%",
					100*share, 100*maxZombieShare)
			}
		})
	}
}
