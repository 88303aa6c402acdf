package main

// Client-mode tests: noiselab submit/status/get/cancel and analyze -server
// driven against an in-process noiselabd and an in-process noisefleet
// coordinator. Both must print the same summary lines (job IDs aside) and
// write result and artifact files byte-identical to a local run.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/service"
)

// runCLI runs fn with os.Stdout and os.Stderr redirected and returns what
// it printed on each, and its error.
func runCLI(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	redirect := func(f **os.File) (restore func() string) {
		r, w, perr := os.Pipe()
		if perr != nil {
			t.Fatal(perr)
		}
		old := *f
		*f = w
		out := make(chan string, 1)
		go func() {
			data, _ := io.ReadAll(r)
			out <- string(data)
		}()
		return func() string {
			w.Close()
			*f = old
			s := <-out
			r.Close()
			return s
		}
	}
	restoreOut := redirect(&os.Stdout)
	restoreErr := redirect(&os.Stderr)
	err = fn()
	return restoreOut(), restoreErr(), err
}

// mustRun is runCLI for a command that must succeed.
func mustRun(t *testing.T, fn func([]string) error, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := runCLI(t, func() error { return fn(args) })
	if err != nil {
		t.Fatalf("%v: %v (stderr %q)", args, err, stderr)
	}
	return stdout, stderr
}

func newClientDaemon(t *testing.T) string {
	t.Helper()
	srv, err := service.New(service.Config{JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

func newClientFleet(t *testing.T, backends int) string {
	t.Helper()
	var urls []string
	for i := 0; i < backends; i++ {
		urls = append(urls, newClientDaemon(t))
	}
	coord, err := fleet.New(fleet.Config{Backends: urls, JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return ts.URL
}

var jobIDPattern = regexp.MustCompile(`\b[jf]\d{6}\b`)

// firstJobID returns the job ID a submit printed on its first line.
func firstJobID(t *testing.T, out string) string {
	t.Helper()
	id := jobIDPattern.FindString(out)
	if !strings.HasPrefix(out, "job "+id+" ") && !strings.HasPrefix(out, "analysis "+id+" ") {
		t.Fatalf("no job ID on the first line of %q", out)
	}
	return id
}

// localKernelResult computes the result payload of a kernel spec in
// process, through the encoder the daemon serves.
func localKernelResult(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	hash, err := service.SpecHash(&spec)
	if err != nil {
		t.Fatal(err)
	}
	es, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	times, traces, err := experiment.Executor{}.Series(context.Background(), es, spec.Reps)
	if err != nil {
		t.Fatal(err)
	}
	data, err := service.BuildResult(hash, spec, times, traces)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sameFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s: %d bytes differ from the local run's %d", path, len(got), len(want))
	}
}

var (
	clientKernelArgs   = []string{"-platform", "tiny-test", "-workload", "schedbench", "-size", "small", "-reps", "6"}
	clientAnalysisArgs = []string{"-platform", "tiny-test", "-workload", "nbody", "-size", "small",
		"-seed", "5", "-reps", "2", "-sources", "irq,daemon", "-ladder", "1,2"}
)

// TestClientDaemonAndFleet drives every client subcommand against a daemon
// and a coordinator.
func TestClientDaemonAndFleet(t *testing.T) {
	localDir := t.TempDir()
	mustRun(t, cmdAnalyze, append(clientAnalysisArgs, "-o", filepath.Join(localDir, "art.json"))...)
	localArt, err := os.ReadFile(filepath.Join(localDir, "art.json"))
	if err != nil {
		t.Fatal(err)
	}
	localRes := localKernelResult(t, service.JobSpec{Platform: "tiny-test", Workload: "schedbench", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 7, Reps: 6})

	transcripts := map[string]string{}
	for _, target := range []struct{ name, url string }{
		{"daemon", newClientDaemon(t)},
		{"fleet", newClientFleet(t, 2)},
	} {
		dir := t.TempDir()
		server := []string{"-server", target.url}
		var log strings.Builder
		record := func(out string) {
			log.WriteString(strings.ReplaceAll(jobIDPattern.ReplaceAllString(out, "<id>"), dir, "<dir>"))
		}

		out, _ := mustRun(t, cmdSubmit, append(append(server, clientKernelArgs...), "-seed", "7", "-wait")...)
		record(out)
		id := firstJobID(t, out)

		out, stderr := mustRun(t, cmdSubmit, append(append(server, clientKernelArgs...), "-seed", "8", "-wait", "-events")...)
		record(out)
		evID := firstJobID(t, out)
		if !strings.Contains(stderr, "reps 6/6") || !strings.Contains(stderr, "job "+evID+" done\n") {
			t.Fatalf("%s: -events progress on stderr: %q", target.name, stderr)
		}

		out, _ = mustRun(t, cmdStatus, append(server, "-job", id)...)
		record(out)
		resPath := filepath.Join(dir, "res.json")
		out, _ = mustRun(t, cmdGet, append(server, "-job", id, "-o", resPath)...)
		record(out)
		sameFile(t, resPath, localRes)
		out, _ = mustRun(t, cmdCancel, append(server, "-job", id)...)
		record(out)

		artPath := filepath.Join(dir, "art.json")
		out, _ = mustRun(t, cmdAnalyze, append(append(server, clientAnalysisArgs...), "-o", artPath)...)
		record(out)
		sameFile(t, artPath, localArt)
		transcripts[target.name] = log.String()
	}
	if transcripts["daemon"] != transcripts["fleet"] {
		t.Fatalf("client output differs between daemon and fleet:\n--- daemon\n%s--- fleet\n%s",
			transcripts["daemon"], transcripts["fleet"])
	}
	for _, want := range []string{"job <id> queued cached=false spec=", "job <id> done cached=false spec=",
		"result <id> -> <dir>/res.json (", "job <id> done\n", "bottleneck: ", "artifact -> <dir>/art.json ("} {
		if !strings.Contains(transcripts["daemon"], want) {
			t.Fatalf("client output lacks %q:\n%s", want, transcripts["daemon"])
		}
	}
}

// TestClientFleetShards: submit -fleet prints the coordinator's per-shard
// placement after the summary.
func TestClientFleetShards(t *testing.T) {
	url := newClientFleet(t, 2)
	out, _ := mustRun(t, cmdSubmit, append(append([]string{"-fleet", "-server", url}, clientKernelArgs...), "-seed", "9", "-wait")...)
	if !strings.Contains(out, "  shard offset=0 reps=3 node=http://") || !strings.Contains(out, "  shard offset=3 reps=3 ") {
		t.Fatalf("submit -fleet output lacks the shard lines:\n%s", out)
	}
}

// TestClientShortSpecHash: a server that omits spec_hash gets its (empty)
// value printed, not a panic.
func TestClientShortSpecHash(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if strings.HasSuffix(r.URL.Path, "/result") {
			io.WriteString(w, "{}")
			return
		}
		io.WriteString(w, `{"id":"x","state":"done"}`)
	}))
	defer ts.Close()
	for _, c := range []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdSubmit, []string{"-server", ts.URL, "-wait"}, "job x done cached=false spec=\n"},
		{cmdStatus, []string{"-server", ts.URL, "-job", "x"}, "job x done cached=false spec=\n"},
		{cmdAnalyze, []string{"-server", ts.URL}, "analysis x done cached=false spec=\n"},
	} {
		out, _, err := runCLI(t, func() error { return c.cmd(c.args) })
		if err == nil && !strings.HasPrefix(out, c.want) {
			t.Fatalf("%v: printed %q, want it to start with %q", c.args, out, c.want)
		}
	}
}
