package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/service"
)

// Backend is the HTTP client of the serving API (service.Handler): the
// coordinator's client for each noiselabd node, and the noiselab CLI's
// client for a daemon or a coordinator. Failures return errors rather than
// retrying, because retry policy (walk the ring to the next node) belongs
// to the coordinator.
type Backend struct {
	// Name is the server's base URL, e.g. "http://10.0.0.7:8080" (for a
	// fleet node, also its ring identity).
	Name   string
	Client *http.Client
}

func (b *Backend) hc() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// errBody extracts the server's JSON error message from a non-2xx response.
func errBody(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("backend %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("backend %s: %s", resp.Status, bytes.TrimSpace(body))
}

// Submit posts a spec and returns the accepted job's status.
func (b *Backend) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.Name+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.hc().Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return st, errBody(resp)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Status polls one job's status.
func (b *Backend) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Name+"/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := b.hc().Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, errBody(resp)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Result fetches a done job's stored payload verbatim.
func (b *Backend) Result(ctx context.Context, id string) ([]byte, error) {
	return b.fetch(ctx, "/v1/jobs/"+id+"/result")
}

// Timeline fetches a done job's recorded timeline: its own for source "",
// else one noise source's evidence timeline of an analysis job.
func (b *Backend) Timeline(ctx context.Context, id, source string) ([]byte, error) {
	if source == "" {
		return b.fetch(ctx, "/v1/jobs/"+id+"/timeline")
	}
	return b.fetch(ctx, "/v1/analyses/"+id+"/timeline/"+source)
}

func (b *Backend) fetch(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Name+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errBody(resp)
	}
	return io.ReadAll(resp.Body)
}

// Cancel cancels a job and returns its state after the call. Canceling a
// terminal job is not an error.
func (b *Backend) Cancel(ctx context.Context, id string) (service.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, b.Name+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	resp, err := b.hc().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", errBody(resp)
	}
	var body struct {
		State service.JobState `json:"state"`
	}
	return body.State, json.NewDecoder(resp.Body).Decode(&body)
}

// WaitDone follows a job's SSE event stream until it reaches a terminal
// state, reporting progress updates through onProgress (may be nil). It
// resumes with Last-Event-ID across one stream break; when the stream breaks
// and a status poll says the job is still not terminal, the backend is
// treated as unhealthy and the error is returned for the coordinator's
// failover to handle.
func (b *Backend) WaitDone(ctx context.Context, id string, onProgress func(done, total int)) (service.JobState, error) {
	var lastID uint64
	retried := false
	for {
		state, err := b.stream(ctx, id, &lastID, onProgress)
		if err == nil {
			return state, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		// One status poll decides: the stream may have broken exactly at
		// terminal-event delivery, or the connection died mid-run.
		st, serr := b.Status(ctx, id)
		if serr == nil && st.State.Terminal() {
			return st.State, nil
		}
		if retried || serr != nil {
			return "", fmt.Errorf("fleet: event stream for %s on %s broke: %w", id, b.Name, err)
		}
		retried = true
	}
}

// stream consumes one SSE connection, returning the terminal state when the
// stream finishes cleanly, or an error when the connection breaks first.
func (b *Backend) stream(ctx context.Context, id string, lastID *uint64, onProgress func(done, total int)) (service.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Name+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := b.hc().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", errBody(resp)
	}

	var (
		typ, data string
		terminal  service.JobState
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.ParseUint(line[len("id: "):], 10, 64); err == nil {
				*lastID = n
			}
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			// Dispatch the completed event.
			switch typ {
			case "progress":
				var p struct{ Done, Total int }
				if json.Unmarshal([]byte(data), &p) == nil && onProgress != nil {
					onProgress(p.Done, p.Total)
				}
			case "state":
				var s struct {
					State service.JobState `json:"state"`
				}
				if json.Unmarshal([]byte(data), &s) == nil && s.State.Terminal() {
					terminal = s.State
				}
			}
			typ, data = "", ""
		}
	}
	if terminal != "" {
		// The server closes the stream after delivering the terminal event;
		// reaching EOF with one in hand is the clean end of the stream.
		return terminal, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("fleet: event stream for %s ended without a terminal state", id)
}
