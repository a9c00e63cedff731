package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The HTTP surface of iobtd: submit a .scn scenario, watch missions,
// read telemetry. Admission pressure is visible in the status codes —
// 429 when the bounded run queue is full, 503 while draining — so a
// flooding client gets backpressure instead of an unbounded backlog.

// maxScenarioBytes bounds a submitted scenario file; real reproducers
// are a few hundred bytes.
const maxScenarioBytes = 1 << 20

// Handler returns the iobtd HTTP API:
//
//	POST /missions       submit a .scn scenario (202, 400, 413, 429, 503)
//	GET  /missions       list missions in submission order
//	GET  /missions/{id}  one mission's status
//	GET  /telemetry      service counters
//	GET  /healthz        liveness and drain state
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /missions", s.handleSubmit)
	mux.HandleFunc("GET /missions", s.handleList)
	mux.HandleFunc("GET /missions/{id}", s.handleMission)
	mux.HandleFunc("GET /telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds renders the hint carried by a QueueFullError as the
// Retry-After value: whole seconds, rounded up, never below 1 (RFC 9110
// allows only integral seconds or an HTTP date).
func retryAfterSeconds(err error) string {
	var qf *QueueFullError
	if errors.As(err, &qf) && qf.RetryAfter > 0 {
		secs := int64((qf.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return strconv.FormatInt(secs, 10)
	}
	return "1"
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{Error: "read body: " + err.Error()})
		return
	}
	m, err := s.Submit(string(body))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(err))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, m.View())
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	missions := s.Missions()
	views := make([]MissionView, 0, len(missions))
	for _, m := range missions {
		views = append(views, m.View())
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Service) handleMission(w http.ResponseWriter, r *http.Request) {
	m := s.Mission(r.PathValue("id"))
	if m == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such mission"})
		return
	}
	writeJSON(w, http.StatusOK, m.View())
}

func (s *Service) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Telemetry())
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	// A draining service is alive but no longer admitting; health flips
	// to 503 so load balancers rotate it out while in-flight missions
	// finish, instead of routing submissions into guaranteed rejections.
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	t := s.Telemetry()
	writeJSON(w, code, map[string]any{
		"status":  status,
		"queued":  t.Queued,
		"running": t.Running,
	})
}
