package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// parallelism is the executor worker count of every workload: the
// benchmark host has two CPUs.
const parallelism = 2

// pinnedPath holds the output digests recorded at defaultSeed, relative to
// the repository root the benchmark runs from.
const pinnedPath = "noisebench/pinned.json"

// pinnedDigests maps workload name to output name to hex SHA-256.
type pinnedDigests map[string]map[string]string

func loadPinned() (pinnedDigests, error) {
	data, err := os.ReadFile(pinnedPath)
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	var p pinnedDigests
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", pinnedPath, err)
	}
	return p, nil
}

// timesDigest hashes a table of simulated execution times.
func timesDigest(table [][]sim.Time) string {
	h := sha256.New()
	var buf [8]byte
	for _, row := range table {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
		h.Write(buf[:])
		for _, t := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(t))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bytesDigest hashes a list of byte strings.
func bytesDigest(parts [][]byte) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a computed digest with the pinned one.
func checkDigest(what, got, want string) error {
	if want == "" {
		return fmt.Errorf("%s: no pinned digest (computed %s)", what, got)
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, pinned %s", what, got, want)
	}
	return nil
}

// checkBytes compares two payloads byte for byte.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Errorf("%s: %d bytes, want %d; first difference at byte %d", what, len(got), len(want), n)
}

// inputSeed is the seed of the inputs iteration it runs: input
// it%seedCycle. Input 0 is the workload seed itself.
func inputSeed(seed uint64, it int) uint64 { return experiment.SeedAt(seed, it%seedCycle) }

// checkSameByInput fails unless every iteration produced the digest of the
// first iteration that ran the same input: outputs are a pure function of
// their seed.
func checkSameByInput(what string, inputs []int, digests []string) error {
	if len(digests) == 0 {
		return fmt.Errorf("%s: no iteration completed", what)
	}
	first := map[int]int{}
	for i, d := range digests {
		f, seen := first[inputs[i]]
		if !seen {
			first[inputs[i]] = i
			continue
		}
		if d != digests[f] {
			return fmt.Errorf("%s: iteration %d digest %s differs from iteration %d of the same input (%s)",
				what, i, d, f, digests[f])
		}
	}
	return nil
}

// firstPerInput returns, in input order, the index of the first iteration
// that ran each input.
func firstPerInput(inputs []int) []int {
	seen := map[int]bool{}
	var out []int
	for in := 0; in < seedCycle; in++ {
		for i, x := range inputs {
			if x == in && !seen[in] {
				seen[in] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// iterID names the spans of iteration i.
func iterID(i int) string { return "it" + strconv.Itoa(i) }

// newExec returns the executor for one iteration: its own world pool, so
// world construction stays in the timed phase as every CLI study pays it,
// and the traced run's counter registry when reg is non-nil.
func newExec(reg *obs.Registry) experiment.Executor {
	e := experiment.Executor{Parallelism: parallelism, Worlds: experiment.NewWorldPool()}
	if reg != nil {
		e.Obs = &experiment.ObsOptions{Reg: reg}
	}
	return e
}

// series runs one Executor.Series call as a job: timed, counted, and
// recorded as a span named name.
func series(ph *phase, e experiment.Executor, name, id string, spec experiment.Spec, reps int) ([]sim.Time, []*trace.Trace, time.Duration, error) {
	sp := ph.tr.begin(name, id, 0, -1)
	t0 := time.Now()
	times, traces, err := e.Series(context.Background(), spec, reps)
	d := time.Since(t0)
	ph.tr.end(sp)
	if ph.op(err, name) {
		ph.job(d)
	}
	return times, traces, d, err
}
