package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"smtdram/internal/obs"
)

// maxBodyBytes bounds request bodies; configurations are tiny.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: msg})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	fp := simShardKey(cfg, req.Trace)
	reqJSON, _ := json.Marshal(req) // canonical form for the write-ahead journal
	s.submit(w, r, "sim", fp, reqJSON, func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return s.simFlightFn(fl, cfg, req.Trace)
	})
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	var req FigRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Validate the figure name up front so a typo is a 400, not a failed job.
	if err := req.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	reqJSON, _ := json.Marshal(req)
	s.submit(w, r, "figure", "fig|"+req.key(), reqJSON, func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return s.figFlightFn(fl, req)
	})
}

// jobFromPath resolves the {id} path value, writing a 404 on a miss.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return nil
	}
	return j
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleJobResult serves the raw result bytes — exactly what a CLI
// `smtdram -json` run with the same configuration prints, byte for byte. The
// producing run's two-speed-clock summary travels in X-Smtdram-Skip-* headers
// (absent for figure sweeps), keeping the body byte-identical.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, result, errMsg, skip := j.state, j.result, j.errMsg, j.skip
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		if skip != nil {
			w.Header().Set("X-Smtdram-Skipped-Cycles", fmt.Sprintf("%d", skip.Skipped))
			w.Header().Set("X-Smtdram-Wall-Cycles", fmt.Sprintf("%d", skip.Wall))
			w.Header().Set("X-Smtdram-Skiprate", fmt.Sprintf("%.4f", skip.Rate))
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateFailed:
		writeErr(w, http.StatusInternalServerError, errMsg)
	case StateCancelled:
		writeErr(w, http.StatusGone, "job was cancelled")
	default:
		writeErr(w, http.StatusConflict, fmt.Sprintf("job is %s; poll until done", state))
	}
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}

	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status(false))
}

// subscribe registers an SSE listener on j. The returned channel receives
// progress samples and is closed at the job's terminal transition; a nil
// channel means the job is already terminal. cancelSub removes the
// registration (client hung up early).
func (j *job) subscribe() (ch chan []byte, cancelSub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return nil, func() {}
	}
	ch = make(chan []byte, 16)
	j.subs = append(j.subs, ch)
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
}

// handleJobEvents streams a job's life as server-sent events: zero or more
// `progress` events (core.Progress samples: cycle, committed, IPC,
// outstanding requests, pending events, skip stats), then exactly one
// terminal event named after the final state (`done`, `failed`, or
// `cancelled`) carrying the JobStatus.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	ch, cancelSub := j.subscribe()
	defer cancelSub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	emit := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	terminal := func() {
		st := j.status(false) // results can be large; clients fetch them via /result
		b, _ := json.Marshal(st)
		emit(string(st.State), b)
	}

	if ch == nil { // already terminal
		terminal()
		return
	}
	for {
		select {
		case sample, open := <-ch:
			if !open {
				terminal()
				return
			}
			emit("progress", sample)
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Fleet nodes label every sample with their identity so a multi-node
	// scrape stays distinguishable; standalone daemons render unlabeled,
	// byte-compatible with pre-fleet scrapes.
	var labels []obs.Label
	if s.cfg.NodeID != "" {
		labels = []obs.Label{{Key: "node_id", Val: s.cfg.NodeID}, {Key: "role", Val: s.Role()}}
	}
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	_ = s.reg.WritePrometheusLabeled(w, "smtdram", uint64(time.Since(s.startedAt)/time.Second), labels)
}

// handleHealthz is pure liveness: 200 whenever the process can serve HTTP at
// all — during drain, during recovery, in store-degraded mode. Orchestrators
// restart on liveness failure; everything condition-shaped lives in /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{Status: "ok", UptimeSeconds: time.Since(s.startedAt).Seconds()})
}

// handleReadyz is readiness: 503 (with the reasons) while draining, while
// journal recovery is still re-running interrupted jobs, or while the
// durable store has degraded to memory-only mode — states where a load
// balancer should route elsewhere even though the process is alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rep := s.readiness()
	code := http.StatusOK
	if !rep.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rep)
}
