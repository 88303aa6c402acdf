package fleet

import (
	"net/http"

	"repro/internal/service"
)

// Handler returns the coordinator's HTTP handler: noiselabd's API
// (service.Handler) served over the fleet, so the noiselab CLI drives
// either one unchanged, plus
//
//	GET    /v1/ring?key=K       inspect a key's placement (debugging)
//	GET    /metrics             Prometheus text metrics
//
// A fleet job's status additionally carries "sub_jobs", the per-slice
// placement; its result is the merged payload, byte-identical to a single
// node's, and /timeline serves the offset-0 slice's timeline.
func (c *Coordinator) Handler() http.Handler {
	mux := service.Handler(c)
	mux.HandleFunc("GET /v1/ring", c.handleRing)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WriteMetrics(w)
	})
	return mux
}

// handleRing reports a key's placement and failover order — an operator's
// window into where a spec hash lives.
func (c *Coordinator) handleRing(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	resp := map[string]any{"members": c.ring.Members()}
	if key != "" {
		resp["key"] = key
		resp["owner"] = c.ring.Pick(key)
		resp["failover"] = c.ring.Seq(key)
	}
	service.WriteJSON(w, http.StatusOK, resp)
}
