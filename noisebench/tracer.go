package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// minClosure is the share of the traced wall time each track's top-level
// spans must cover: what no span covers is the benchmark's own glue, and
// more than 5% of it means a layer call went unrecorded.
const minClosure = 0.95

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	Name string `json:"name"`
	// ID groups the spans of one unit of work: an iteration ("it3") or a
	// client's job ("c1/j17").
	ID string `json:"id"`
	// Track is the concurrent caller that made the call: 0 for the
	// kernel workloads, the client index for serve-mix.
	Track int `json:"track"`
	// Parent indexes the enclosing span, -1 for a top-level span.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads run the same code traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, track, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Track: track, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a callback).
func (t *tracer) add(name, id string, track, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Track: track, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// durations returns the duration in milliseconds of every closed span with
// this name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// ledgerRow is one layer call's share of the traced run. Self time is the
// span's duration minus the time its child spans cover.
type ledgerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) ledger() []ledgerRow {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*ledgerRow{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Calls++
		r.TotalMs += float64(d) / 1e6
		r.SelfMs += float64(max(d-child[i], 0)) / 1e6
	}
	out := make([]ledgerRow, 0, len(rows))
	for _, k := range sortedKeys(rows) {
		out = append(out, *rows[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// coverage returns, per track, the share of wall that top-level spans
// cover.
func (t *tracer) coverage(wall time.Duration) map[string]float64 {
	covered := map[int]int64{}
	for _, s := range t.spans {
		if _, ok := covered[s.Track]; !ok {
			covered[s.Track] = 0
		}
		if s.Parent < 0 && s.End >= 0 {
			covered[s.Track] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for track, ns := range covered {
		out[strconv.Itoa(track)] = float64(ns) / float64(wall.Nanoseconds())
	}
	return out
}

// closure fails when some track's top-level spans cover less than
// minClosure of the traced wall time, or when nothing was recorded.
func (t *tracer) closure(wall time.Duration) error {
	cov := t.coverage(wall)
	if len(cov) == 0 {
		return fmt.Errorf("no spans recorded")
	}
	for _, track := range sortedKeys(cov) {
		if cov[track] < minClosure {
			return fmt.Errorf("track %s: top-level spans cover %.1f%% of %v", track, 100*cov[track], wall)
		}
	}
	return nil
}

// writeTrace writes the traced run's spans and ledger to
// .bench_build/trace/<workload>-<seed>.json and prints the ledger to
// standard error.
func writeTrace(workload string, seed uint64, ph *phase) error {
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		WallNs   int64              `json:"wall_ns"`
		Coverage map[string]float64 `json:"coverage"`
		Ledger   []ledgerRow        `json:"ledger"`
		Spans    []span             `json:"spans"`
	}{workload, seed, ph.wall().Nanoseconds(), ph.tr.coverage(ph.wall()), ph.tr.ledger(), ph.tr.spans}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "noisebench: traced %s: %d spans over %v, written to %s\n",
		workload, len(ph.tr.spans), ph.wall().Round(time.Millisecond), path)
	fmt.Fprintf(os.Stderr, "%-34s %7s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, r := range doc.Ledger {
		fmt.Fprintf(os.Stderr, "%-34s %7d %12.1f %12.1f\n", r.Name, r.Calls, r.TotalMs, r.SelfMs)
	}
	for _, track := range sortedKeys(doc.Coverage) {
		fmt.Fprintf(os.Stderr, "track %s: top-level spans cover %.1f%% of the traced wall time\n",
			track, 100*doc.Coverage[track])
	}
	return nil
}
