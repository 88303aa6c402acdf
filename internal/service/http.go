package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/analyze"
)

// API is the job surface both serving front ends implement: noiselabd's
// Server runs jobs itself, noisefleet's Coordinator shards them across
// Servers. Handler serves either one on the same routes with the same
// status codes, headers and bodies.
type API interface {
	// Submit validates and accepts a spec. The returned status is the
	// job's first settled state: done when a cache answered it, queued
	// otherwise.
	Submit(spec JobSpec) (JobStatus, error)
	Status(id string) (JobStatus, bool)
	// Result returns a job's payload bytes (nil until it is done).
	Result(id string) ([]byte, JobState, bool)
	// Timeline returns a done job's stored timeline: for source "" the
	// job's own (an analysis's bottleneck evidence), else that noise
	// source's evidence timeline. data is nil when none was recorded.
	Timeline(id, source string) (data []byte, state JobState, found bool)
	Events(id string) (*EventLog, bool)
	// Cancel cancels a job that is not terminal and returns its state
	// after the call.
	Cancel(id string) (JobState, bool)
}

// Unavailable refuses a submission for now (queue full, draining):
// Handler answers it with 503 and Retry-After.
type Unavailable string

func (e Unavailable) Error() string { return string(e) }

// Handler serves an API:
//
//	POST   /v1/jobs            submit a JobSpec; 202 + JobStatus (200 when
//	                           served from cache at submit time)
//	GET    /v1/jobs/{id}       poll status
//	GET    /v1/jobs/{id}/result fetch the stored result payload verbatim
//	GET    /v1/jobs/{id}/events live progress as server-sent events (state
//	                           transitions + rep completions; Last-Event-ID
//	                           resumes a dropped stream)
//	GET    /v1/jobs/{id}/timeline fetch the Chrome trace-event timeline
//	                           (specs submitted with "timeline": true)
//	DELETE /v1/jobs/{id}       cancel; 200 + {"id", "state"}
//	POST   /v1/analyses        submit a bare analysis spec (analyze.Spec);
//	                           the body is wrapped as JobSpec{Analyze: spec}
//	                           and rides the same queue, cache and SSE stream
//	GET    /v1/analyses/{id}           poll status (alias of the job route)
//	GET    /v1/analyses/{id}/result    fetch the analysis artifact verbatim
//	GET    /v1/analyses/{id}/events    live progress (SSE)
//	GET    /v1/analyses/{id}/timeline  bottleneck source's evidence timeline
//	GET    /v1/analyses/{id}/timeline/{source} one source's evidence timeline
//	DELETE /v1/analyses/{id}           cancel
//	GET    /healthz            liveness
//
// Errors are JSON {"error": msg}: malformed or invalid specs get 400,
// unknown jobs 404, an Unavailable submission 503 with Retry-After, the
// payload of a failed or canceled job 409, and the payload of a job that is
// not done yet 202 with Retry-After. Each surface adds its own routes to the
// returned mux.
func Handler(api API) *http.ServeMux {
	h := handler{api}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submitJob)
	mux.HandleFunc("POST /v1/analyses", h.submitAnalysis)
	for _, base := range []string{"/v1/jobs/{id}", "/v1/analyses/{id}"} {
		mux.HandleFunc("GET "+base, h.status)
		mux.HandleFunc("GET "+base+"/result", h.result)
		mux.HandleFunc("GET "+base+"/events", h.events)
		mux.HandleFunc("GET "+base+"/timeline", h.timeline)
		mux.HandleFunc("DELETE "+base, h.cancel)
	}
	mux.HandleFunc("GET /v1/analyses/{id}/timeline/{source}", h.timeline)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON writes v as a JSON response body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type handler struct{ api API }

func (h handler) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if decodeSpec(w, r, "spec", &spec) {
		h.submit(w, spec)
	}
}

// submitAnalysis wraps a bare analysis spec as a job. The wrapped JobSpec
// leaves every single-node field unset, so validation cannot reject it for
// field mixing: only the analysis spec itself is on trial.
func (h handler) submitAnalysis(w http.ResponseWriter, r *http.Request) {
	var spec analyze.Spec
	if decodeSpec(w, r, "analysis spec", &spec) {
		h.submit(w, JobSpec{Analyze: &spec})
	}
}

func decodeSpec(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "decoding "+what+": "+err.Error())
		return false
	}
	return true
}

func (h handler) submit(w http.ResponseWriter, spec JobSpec) {
	st, err := h.api.Submit(spec)
	var busy Unavailable
	switch {
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	case st.State.Terminal():
		WriteJSON(w, http.StatusOK, st)
	default:
		WriteJSON(w, http.StatusAccepted, st)
	}
}

func unknownJob(w http.ResponseWriter) {
	httpError(w, http.StatusNotFound, "unknown job")
}

// notDone answers a payload request for a job that is still queued or
// running.
func notDone(w http.ResponseWriter, state JobState) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusAccepted, "job "+string(state))
}

func (h handler) status(w http.ResponseWriter, r *http.Request) {
	st, ok := h.api.Status(r.PathValue("id"))
	if !ok {
		unknownJob(w)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (h handler) result(w http.ResponseWriter, r *http.Request) {
	data, state, ok := h.api.Result(r.PathValue("id"))
	switch {
	case !ok:
		unknownJob(w)
	case state == StateDone:
		// Serve the stored bytes verbatim: a cache hit or a merged fleet
		// result is byte-identical to the execution that produced it.
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case state.Terminal():
		httpError(w, http.StatusConflict, "job "+string(state)+", no result")
	default:
		notDone(w, state)
	}
}

func (h handler) timeline(w http.ResponseWriter, r *http.Request) {
	source := r.PathValue("source")
	data, state, ok := h.api.Timeline(r.PathValue("id"), source)
	switch {
	case !ok:
		unknownJob(w)
	case state == StateDone && data != nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case state == StateDone && source == "":
		httpError(w, http.StatusNotFound, "no timeline recorded (submit with \"timeline\": true)")
	case state == StateDone:
		httpError(w, http.StatusNotFound, "no evidence timeline for that source (submit with \"timeline\": true)")
	case state.Terminal():
		httpError(w, http.StatusConflict, "job "+string(state)+", no timeline")
	default:
		notDone(w, state)
	}
}

func (h handler) events(w http.ResponseWriter, r *http.Request) {
	log, ok := h.api.Events(r.PathValue("id"))
	if !ok {
		unknownJob(w)
		return
	}
	ServeSSE(w, r, log)
}

func (h handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, ok := h.api.Cancel(id)
	if !ok {
		unknownJob(w)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"id": id, "state": string(state)})
}

// Handler returns noiselabd's HTTP handler: the shared API routes plus
//
//	GET    /metrics            Prometheus text metrics (?format=json for the
//	                           JSON rendering of the same registries)
//	GET    /debug/flightrecorder recent flight-recorder dumps of failed reps
func (s *Server) Handler() http.Handler {
	mux := Handler(s)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.FlightDumps())
	})
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.writeMetricsJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics().render(w)
	// The kernel counters accumulated across job executions (repro_*
	// families) follow the service families.
	s.runReg.WritePrometheus(w)
}

// writeMetricsJSON renders the service snapshot plus both registries (the
// service families and the kernel's repro_* families) as one JSON document.
func (s *Server) writeMetricsJSON(w http.ResponseWriter) {
	var svc, kernel bytes.Buffer
	if err := s.met.reg.WriteJSON(&svc); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := s.runReg.WriteJSON(&kernel); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"snapshot": s.Metrics(),
		"service":  json.RawMessage(svc.Bytes()),
		"kernel":   json.RawMessage(kernel.Bytes()),
	})
}
