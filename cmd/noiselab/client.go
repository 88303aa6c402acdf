package main

// Client mode: drive a running noiselabd or noisefleet coordinator over
// HTTP through fleet.Backend, the serving API's one client. submit posts an
// experiment spec (optionally waiting for the result), status reports one
// job, get fetches the stored result payload, cancel aborts a job.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/service"
)

// serverFlag adds the shared -server flag.
func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://localhost:8723", "noiselabd base URL")
}

// fleetDefault is the noisefleet coordinator's default base URL, used when
// -fleet is set and -server was left at the noiselabd default.
const fleetDefault = "http://localhost:8733"

// resolveServer picks the target base URL: -fleet retargets an untouched
// -server at the coordinator's default port (the coordinator serves
// noiselabd's API, so everything downstream is shared).
func resolveServer(fs *flag.FlagSet, server string, fleetMode bool) string {
	if fleetMode && !flagChanged(fs, "server") {
		return fleetDefault
	}
	return server
}

func flagChanged(fs *flag.FlagSet, name string) bool {
	changed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			changed = true
		}
	})
	return changed
}

func cmdSubmit(args []string) error {
	c := newCommon("submit")
	server := serverFlag(c.fs)
	reps := c.fs.Int("reps", 50, "repetitions")
	size := c.fs.String("size", "", "problem size: default or small")
	tracing := c.fs.Bool("tracing", false, "record per-rep traces in the result")
	wait := c.fs.Bool("wait", false, "wait until the job finishes and print the summary")
	fleetMode := c.fs.Bool("fleet", false,
		"target a noisefleet coordinator (default server becomes "+fleetDefault+"); prints per-shard detail with -wait")
	events := c.fs.Bool("events", false,
		"with -wait: print live rep progress from the job's event stream on stderr")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	b := &fleet.Backend{Name: resolveServer(c.fs, *server, *fleetMode)}
	spec := service.JobSpec{
		Platform: *c.platform, Workload: *c.workload, Model: *c.model,
		Strategy: *c.strategy, Seed: *c.seed, Reps: *reps, Size: *size,
		Tracing: *tracing,
	}
	ctx := context.Background()
	st, err := b.Submit(ctx, spec)
	if err != nil {
		return err
	}
	printStatus("job", st)
	if !*wait {
		return nil
	}
	if st, err = waitJob(ctx, b, st.ID, *events); err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if *fleetMode {
		// A daemon's status carries no sub_jobs, so this prints nothing.
		for _, s := range st.SubJobs {
			fmt.Printf("  shard offset=%d reps=%d node=%s job=%s cached=%v retries=%d\n",
				s.Offset, s.Reps, s.Node, s.JobID, s.Cached, s.Retries)
		}
	}
	return fetchAndPrint(ctx, b, st.ID, "")
}

// printStatus prints a job's status line.
func printStatus(kind string, st service.JobStatus) {
	fmt.Printf("%s %s %s cached=%v spec=%s", kind, st.ID, st.State, st.Cached, shortHash(st.SpecHash))
	if st.Error != "" {
		fmt.Printf(" error=%q", st.Error)
	}
	fmt.Println()
}

// shortHash abbreviates a spec hash for display. The hash comes from the
// server, so it may be shorter than the abbreviation.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// waitJob follows the job's event stream until it is terminal and returns
// its final status. With progress, rep completions and the final state are
// echoed to stderr.
func waitJob(ctx context.Context, b *fleet.Backend, id string, progress bool) (service.JobStatus, error) {
	var onProgress func(done, total int)
	if progress {
		onProgress = func(done, total int) { fmt.Fprintf(os.Stderr, "\rreps %d/%d", done, total) }
	}
	state, err := b.WaitDone(ctx, id, onProgress)
	if err != nil {
		return service.JobStatus{}, err
	}
	if progress {
		fmt.Fprintf(os.Stderr, "\rjob %s %s\n", id, state)
	}
	return b.Status(ctx, id)
}

// jobFlags parses the -server and -job flags the single-job commands share.
func jobFlags(name string, args []string, extra func(*flag.FlagSet)) (*fleet.Backend, string, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	server := serverFlag(fs)
	job := fs.String("job", "", "job ID (required)")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if *job == "" {
		return nil, "", fmt.Errorf("-job is required")
	}
	return &fleet.Backend{Name: *server}, *job, nil
}

func cmdStatus(args []string) error {
	b, id, err := jobFlags("status", args, nil)
	if err != nil {
		return err
	}
	st, err := b.Status(context.Background(), id)
	if err != nil {
		return err
	}
	printStatus("job", st)
	return nil
}

func cmdGet(args []string) error {
	var out *string
	b, id, err := jobFlags("get", args, func(fs *flag.FlagSet) {
		out = fs.String("o", "", "write the raw result JSON to this file instead of summarizing")
	})
	if err != nil {
		return err
	}
	return fetchAndPrint(context.Background(), b, id, *out)
}

// fetchAndPrint downloads a result payload and either saves it raw or
// prints the summary line.
func fetchAndPrint(ctx context.Context, b *fleet.Backend, id, outPath string) error {
	data, err := b.Result(ctx, id)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("result %s -> %s (%d bytes)\n", id, outPath, len(data))
		return nil
	}
	var res service.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	s := res.Summary
	fmt.Printf("%s %s %s %s: n=%d mean=%.2fms sd=%.2fms cv=%.3f min=%.2f p95=%.2f max=%.2f (model %s)\n",
		res.Spec.Platform, res.Spec.Workload, res.Spec.Model, res.Spec.Strategy,
		s.N, s.Mean, s.SD, s.CV, s.Min, s.P95, s.Max, res.ModelVersion)
	return nil
}

func cmdCancel(args []string) error {
	b, id, err := jobFlags("cancel", args, nil)
	if err != nil {
		return err
	}
	state, err := b.Cancel(context.Background(), id)
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", id, state)
	return nil
}
