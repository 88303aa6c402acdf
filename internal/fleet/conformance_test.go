package fleet_test

// HTTP conformance suite for the serving surface. The same checks run,
// over plain HTTP only, against noiselabd, a 1-backend fleet and a
// 3-backend fleet: every route's status code, Content-Type, Retry-After and
// error-body bytes, so a client cannot tell which front end answered
// except by the coordinator-only "sub_jobs" status field.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/fleet"
	"repro/internal/service"
)

// surface is one serving front end under test.
type surface struct {
	url      string
	fleet    bool   // a coordinator: status bodies carry "sub_jobs"
	drain    func() // stop accepting submissions
	drainMsg string // the 503 error message once drained
}

// surfaceKinds builds each front end with the given per-job timeout (the
// timeout applies to every layer, so a short one makes long jobs fail).
var surfaceKinds = []struct {
	name string
	new  func(t *testing.T, timeout time.Duration) surface
}{
	{"daemon", newDaemonSurface},
	{"fleet-1", func(t *testing.T, timeout time.Duration) surface { return newFleetSurface(t, 1, timeout) }},
	{"fleet-3", func(t *testing.T, timeout time.Duration) surface { return newFleetSurface(t, 3, timeout) }},
}

func newDaemon(t *testing.T, timeout time.Duration) (*service.Server, string) {
	t.Helper()
	srv, err := service.New(service.Config{CacheDir: t.TempDir(), Workers: 2, JobTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

func newDaemonSurface(t *testing.T, timeout time.Duration) surface {
	srv, url := newDaemon(t, timeout)
	return surface{
		url: url,
		drain: func() {
			if err := srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		},
		drainMsg: "service: draining, not accepting jobs",
	}
}

func newFleetSurface(t *testing.T, n int, timeout time.Duration) surface {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		_, url := newDaemon(t, timeout)
		urls = append(urls, url)
	}
	coord, err := fleet.New(fleet.Config{Backends: urls, JobTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return surface{url: ts.URL, fleet: true, drain: coord.Close, drainMsg: "fleet: draining, not accepting jobs"}
}

var conformClient = &http.Client{Timeout: 2 * time.Minute}

// reply is one HTTP exchange's observable outcome.
type reply struct {
	code int
	hdr  http.Header
	body []byte
}

func call(t *testing.T, method, url, body string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := conformClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header, data}
}

// expect checks the status code, Content-Type and Retry-After header
// ("" = absent) of an exchange.
func (r reply) expect(t *testing.T, what string, code int, contentType, retryAfter string) {
	t.Helper()
	if r.code != code {
		t.Fatalf("%s: HTTP %d, want %d (body %q)", what, r.code, code, r.body)
	}
	if got := r.hdr.Get("Content-Type"); got != contentType {
		t.Fatalf("%s: Content-Type %q, want %q", what, got, contentType)
	}
	if got := r.hdr.Get("Retry-After"); got != retryAfter {
		t.Fatalf("%s: Retry-After %q, want %q", what, got, retryAfter)
	}
}

// expectError checks a JSON error reply byte for byte.
func (r reply) expectError(t *testing.T, what string, code int, msg string) {
	t.Helper()
	retry := ""
	if code == http.StatusAccepted || code == http.StatusServiceUnavailable {
		retry = "1"
	}
	r.expect(t, what, code, "application/json", retry)
	want, _ := json.Marshal(map[string]string{"error": msg})
	if got := string(r.body); got != string(want)+"\n" {
		t.Fatalf("%s: body %q, want %q", what, got, string(want)+"\n")
	}
}

// expectJSON checks a 200 application/json reply whose body is exactly want
// (plus the encoder's trailing newline).
func (r reply) expectJSON(t *testing.T, what string, want any) {
	t.Helper()
	r.expect(t, what, http.StatusOK, "application/json", "")
	enc, _ := json.Marshal(want)
	if got := string(r.body); got != string(enc)+"\n" {
		t.Fatalf("%s: body %q, want %q", what, got, string(enc)+"\n")
	}
}

// status decodes a status body and checks the sub_jobs rule: present on a
// coordinator, absent on a daemon.
func (s surface) status(t *testing.T, what string, r reply) service.JobStatus {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(r.body, &raw); err != nil {
		t.Fatalf("%s: decoding %q: %v", what, r.body, err)
	}
	if _, has := raw["sub_jobs"]; has != s.fleet {
		t.Fatalf("%s: sub_jobs present=%v on a fleet=%v surface: %s", what, has, s.fleet, r.body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		t.Fatalf("%s: decoding %q: %v", what, r.body, err)
	}
	return st
}

// submit posts body to path and checks the accepted reply.
func (s surface) submit(t *testing.T, path, body string, code int) service.JobStatus {
	t.Helper()
	r := call(t, http.MethodPost, s.url+path, body)
	r.expect(t, "POST "+path, code, "application/json", "")
	st := s.status(t, "POST "+path, r)
	if st.ID == "" || len(st.SpecHash) != 64 {
		t.Fatalf("POST %s: status %+v lacks an id or a spec hash", path, st)
	}
	if terminal := code == http.StatusOK; st.State.Terminal() != terminal {
		t.Fatalf("POST %s: HTTP %d with state %s", path, code, st.State)
	}
	return st
}

// await follows the job's event stream to its end and returns the final
// status. It checks the stream's headers and that the last event it carried
// is the terminal state.
func (s surface) await(t *testing.T, id string) service.JobStatus {
	t.Helper()
	resp, err := conformClient.Get(s.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" ||
		resp.Header.Get("Cache-Control") != "no-cache" {
		t.Fatalf("events %s: HTTP %d, headers %v", id, resp.StatusCode, resp.Header)
	}
	var last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	r := call(t, http.MethodGet, s.url+"/v1/jobs/"+id, "")
	r.expect(t, "GET status", http.StatusOK, "application/json", "")
	st := s.status(t, "GET status", r)
	if want := `data: {"state":"` + string(st.State) + `"}`; !st.State.Terminal() || last != want {
		t.Fatalf("events %s: stream ended on %q with the job %s", id, last, st.State)
	}
	return st
}

func conformKernelSpec(seed uint64, reps int) service.JobSpec {
	return service.JobSpec{
		Platform: "tiny-test", Workload: "schedbench", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: seed, Reps: reps,
	}
}

func conformAnalysisSpec() analyze.Spec {
	return analyze.Spec{
		Platform: "tiny-test", Workload: "nbody", Size: "small",
		Model: "omp", Strategy: "Rm", Seed: 5, Reps: 2,
		Sources: []string{"irq", "daemon"}, Ladder: []float64{1, 2},
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// conformResults holds each spec's result bytes as first served, so every
// later surface must serve the same bytes.
var conformResults sync.Map

func sameResult(t *testing.T, what string, key string, data []byte) {
	t.Helper()
	if prev, loaded := conformResults.LoadOrStore(key, string(data)); loaded && prev.(string) != string(data) {
		t.Fatalf("%s: result bytes differ between surfaces", what)
	}
}

const (
	noTimeline       = "no timeline recorded (submit with \"timeline\": true)"
	noSourceTimeline = "no evidence timeline for that source (submit with \"timeline\": true)"
)

func TestConformance(t *testing.T) {
	for _, kind := range surfaceKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := kind.new(t, 2*time.Minute)
			t.Run("healthz", func(t *testing.T) {
				r := call(t, http.MethodGet, s.url+"/healthz", "")
				r.expect(t, "healthz", http.StatusOK, "text/plain; charset=utf-8", "")
				if string(r.body) != "ok\n" {
					t.Fatalf("healthz body %q", r.body)
				}
			})
			t.Run("unknown-id", func(t *testing.T) { conformUnknownID(t, s) })
			t.Run("bad-spec", func(t *testing.T) { conformBadSpec(t, s) })
			t.Run("kernel", func(t *testing.T) { conformKernel(t, s) })
			t.Run("analysis", func(t *testing.T) { conformAnalysis(t, s) })
			t.Run("cancel", func(t *testing.T) { conformCancel(t, s) })
			t.Run("failed", func(t *testing.T) { conformFailed(t, kind.new(t, 50*time.Millisecond)) })
			t.Run("draining", func(t *testing.T) {
				s.drain()
				for _, path := range []string{"/v1/jobs", "/v1/analyses"} {
					body := mustJSON(t, conformKernelSpec(1, 1))
					if path == "/v1/analyses" {
						body = mustJSON(t, conformAnalysisSpec())
					}
					call(t, http.MethodPost, s.url+path, body).
						expectError(t, "POST "+path+" while draining", http.StatusServiceUnavailable, s.drainMsg)
				}
			})
		})
	}
}

// conformUnknownID: every route that names a job answers 404 for an ID the
// surface never issued.
func conformUnknownID(t *testing.T, s surface) {
	for _, route := range []string{
		"GET /v1/jobs/nope", "GET /v1/jobs/nope/result", "GET /v1/jobs/nope/events",
		"GET /v1/jobs/nope/timeline", "DELETE /v1/jobs/nope",
		"GET /v1/analyses/nope", "GET /v1/analyses/nope/result", "GET /v1/analyses/nope/events",
		"GET /v1/analyses/nope/timeline", "GET /v1/analyses/nope/timeline/irq", "DELETE /v1/analyses/nope",
	} {
		method, path, _ := strings.Cut(route, " ")
		call(t, method, s.url+path, "").expectError(t, route, http.StatusNotFound, "unknown job")
	}
}

// conformBadSpec: malformed JSON, unknown fields and invalid specs are 400s
// with the decoder's or the validator's message, on both submit routes.
func conformBadSpec(t *testing.T, s surface) {
	cases := []struct{ path, body, msg string }{
		{"/v1/jobs", `{`, "decoding spec: unexpected EOF"},
		{"/v1/jobs", `{"bogus":1}`, `decoding spec: json: unknown field "bogus"`},
		{"/v1/jobs", `{"platform":"nope","workload":"nbody","model":"omp","strategy":"Rm","reps":1}`,
			`service: machine: unknown preset "nope"`},
		{"/v1/jobs", `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":0}`,
			"service: reps 0 must be >= 1"},
		{"/v1/analyses", `{`, "decoding analysis spec: unexpected EOF"},
		{"/v1/analyses", `{"bogus":1}`, `decoding analysis spec: json: unknown field "bogus"`},
		{"/v1/analyses", `{"platform":"tiny-test","workload":"nbody","model":"omp","strategy":"Rm","reps":0}`,
			"service: analyze: reps 0 must be >= 1"},
	}
	for _, c := range cases {
		call(t, http.MethodPost, s.url+c.path, c.body).
			expectError(t, "POST "+c.path+" "+c.body, http.StatusBadRequest, c.msg)
	}
}

// conformKernel walks a kernel job through every job route, then resubmits
// it for a cached 200.
func conformKernel(t *testing.T, s surface) {
	spec := conformKernelSpec(11, 6)
	hash, err := service.SpecHash(&spec)
	if err != nil {
		t.Fatal(err)
	}
	st := s.submit(t, "/v1/jobs", mustJSON(t, spec), http.StatusAccepted)
	if st.SpecHash != hash || st.Cached {
		t.Fatalf("submit: %+v, want spec_hash %s uncached", st, hash)
	}
	if final := s.await(t, st.ID); final.State != service.StateDone || final.RepsDone != 6 || final.RepsTotal != 6 {
		t.Fatalf("final status %+v", final)
	}
	res := call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+"/result", "")
	res.expect(t, "GET result", http.StatusOK, "application/json", "")
	sameResult(t, "GET result", hash, res.body)
	alias := call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID+"/result", "")
	if alias.code != http.StatusOK || string(alias.body) != string(res.body) {
		t.Fatalf("analyses alias of the result route: HTTP %d, %d bytes", alias.code, len(alias.body))
	}
	call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+"/timeline", "").
		expectError(t, "GET timeline", http.StatusNotFound, noTimeline)
	call(t, http.MethodDelete, s.url+"/v1/jobs/"+st.ID, "").
		expectJSON(t, "DELETE done job", map[string]string{"id": st.ID, "state": "done"})

	again := s.submit(t, "/v1/jobs", mustJSON(t, spec), http.StatusOK)
	if again.ID == st.ID || again.State != service.StateDone || !again.Cached || again.SpecHash != hash {
		t.Fatalf("resubmit: %+v", again)
	}
	res2 := call(t, http.MethodGet, s.url+"/v1/jobs/"+again.ID+"/result", "")
	if res2.code != http.StatusOK || string(res2.body) != string(res.body) {
		t.Fatalf("cached result: HTTP %d, bytes differ=%v", res2.code, string(res2.body) != string(res.body))
	}
	s.await(t, again.ID)

	tlSpec := conformKernelSpec(12, 4)
	tlSpec.Timeline = true
	tl := s.submit(t, "/v1/jobs", mustJSON(t, tlSpec), http.StatusAccepted)
	s.await(t, tl.ID)
	r := call(t, http.MethodGet, s.url+"/v1/jobs/"+tl.ID+"/timeline", "")
	r.expect(t, "GET recorded timeline", http.StatusOK, "application/json", "")
	sameResult(t, "GET recorded timeline", "timeline", r.body)
}

// conformAnalysis walks an analysis job (no evidence timelines) through
// the /v1/analyses routes, including both timeline-404 messages.
func conformAnalysis(t *testing.T, s surface) {
	spec := conformAnalysisSpec()
	st := s.submit(t, "/v1/analyses", mustJSON(t, spec), http.StatusAccepted)
	if final := s.await(t, st.ID); final.State != service.StateDone {
		t.Fatalf("final status %+v", final)
	}
	r := call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID, "")
	r.expect(t, "GET analysis status", http.StatusOK, "application/json", "")
	if got := s.status(t, "GET analysis status", r); got.ID != st.ID || got.State != service.StateDone {
		t.Fatalf("analysis status %+v", got)
	}
	res := call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID+"/result", "")
	res.expect(t, "GET analysis result", http.StatusOK, "application/json", "")
	if _, err := analyze.Decode(res.body); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "GET analysis result", st.SpecHash, res.body)
	call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID+"/timeline", "").
		expectError(t, "GET analysis timeline", http.StatusNotFound, noTimeline)
	call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID+"/timeline/irq", "").
		expectError(t, "GET analysis source timeline", http.StatusNotFound, noSourceTimeline)
	call(t, http.MethodDelete, s.url+"/v1/analyses/"+st.ID, "").
		expectJSON(t, "DELETE done analysis", map[string]string{"id": st.ID, "state": "done"})
	s.submit(t, "/v1/analyses", mustJSON(t, spec), http.StatusOK)
}

// conformCancel: a job that is not done yet answers 202 with Retry-After
// on every payload route; once canceled, 409.
func conformCancel(t *testing.T, s surface) {
	st := s.submit(t, "/v1/jobs", mustJSON(t, conformKernelSpec(13, 50000)), http.StatusAccepted)
	for _, path := range []string{"/result", "/timeline"} {
		r := call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+path, "")
		var e struct{ Error string }
		json.Unmarshal(r.body, &e)
		state := strings.TrimPrefix(e.Error, "job ")
		if state != "queued" && state != "running" {
			t.Fatalf("GET %s of an unfinished job: %q", path, r.body)
		}
		r.expectError(t, "GET "+path+" while "+state, http.StatusAccepted, e.Error)
	}
	r := call(t, http.MethodDelete, s.url+"/v1/jobs/"+st.ID, "")
	r.expect(t, "DELETE", http.StatusOK, "application/json", "")
	var body map[string]string
	if err := json.Unmarshal(r.body, &body); err != nil || len(body) != 2 || body["id"] != st.ID ||
		(body["state"] != "queued" && body["state"] != "running" && body["state"] != "canceled") {
		t.Fatalf("DELETE: %q", r.body)
	}
	if final := s.await(t, st.ID); final.State != service.StateCanceled || final.Error != "canceled" {
		t.Fatalf("final status %+v", final)
	}
	call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+"/result", "").
		expectError(t, "GET result", http.StatusConflict, "job canceled, no result")
	call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+"/timeline", "").
		expectError(t, "GET timeline", http.StatusConflict, "job canceled, no timeline")
	call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID+"/timeline/irq", "").
		expectError(t, "GET source timeline", http.StatusConflict, "job canceled, no timeline")
	call(t, http.MethodDelete, s.url+"/v1/analyses/"+st.ID, "").
		expectJSON(t, "DELETE canceled job", map[string]string{"id": st.ID, "state": "canceled"})
}

// conformFailed: a job that runs out of time ends failed; its payload
// routes answer 409.
func conformFailed(t *testing.T, s surface) {
	st := s.submit(t, "/v1/jobs", mustJSON(t, conformKernelSpec(17, 50000)), http.StatusAccepted)
	if final := s.await(t, st.ID); final.State != service.StateFailed || final.Error == "" {
		t.Fatalf("final status %+v", final)
	}
	call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+"/result", "").
		expectError(t, "GET result", http.StatusConflict, "job failed, no result")
	call(t, http.MethodGet, s.url+"/v1/jobs/"+st.ID+"/timeline", "").
		expectError(t, "GET timeline", http.StatusConflict, "job failed, no timeline")
	call(t, http.MethodGet, s.url+"/v1/analyses/"+st.ID+"/timeline/irq", "").
		expectError(t, "GET source timeline", http.StatusConflict, "job failed, no timeline")
}
