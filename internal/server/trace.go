package server

import (
	"net/http"
	"strconv"

	"smtdram/internal/obs"
)

// handleJobTrace serves one job's combined two-domain trace as Chrome
// trace_event JSON: the job's wall-clock phases (admission → queue → run →
// respond, plus the simulator's warmup/measure), and — when the job was
// submitted with "trace": true — the simulation's cycle-domain request
// lifecycle, anchored so cycle 0 lands at the wall-clock instant the run
// started. Load the payload in ui.perfetto.dev; every event carries a "job"
// arg correlating the domains.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeJobTrace(w, s.jobTrace(j))
}

// jobTrace renders j's record — the instants the phase histograms read, and
// the run record of the flight it rode — as trace phases. A phase that has
// not ended yet keeps a zero End.
func (s *Server) jobTrace(j *job) obs.JobTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()

	fl := j.rode
	args := map[string]string{"kind": j.kind, "fp": j.fp}
	if j.state.Terminal() {
		args["state"] = string(j.state)
	}
	if fl != nil {
		args["flight"] = fl.id
	}
	t := obs.JobTrace{JobID: j.id, Phases: []obs.Phase{
		{Name: "job", Start: j.created, End: j.tDone, Args: args},
		{Name: "admission", Start: j.created, End: j.tAdmitted, Args: map[string]string{"outcome": j.outcome}},
	}}
	if fl == nil {
		return t // answered without a flight: from the cache or the journal
	}
	queued := j.tRunStart
	if queued.IsZero() {
		// Left the queue without running: cancelled, or resolved (failed)
		// before a worker took the flight; zero while still queued.
		queued = fl.resolved
		if j.state == StateCancelled {
			queued = j.tDone
		}
	}
	t.Phases = append(t.Phases, obs.Phase{Name: "queue_wait", Start: j.tAdmitted, End: queued})
	if j.state == StateDone || j.state == StateFailed {
		t.Phases = append(t.Phases, obs.Phase{Name: "respond", Start: fl.resolved, End: j.tDone})
	}
	if j.tRunStart.IsZero() {
		return t
	}

	run := obs.Phase{Name: "run", Start: fl.runStart, End: fl.resolved, Args: map[string]string{"flight": fl.id}}
	if fl.err != "" {
		run.Args["error"] = fl.err
	}
	t.FlightID, t.Run = fl.id, []obs.Phase{run}
	for _, p := range fl.phases {
		args := map[string]string{"start_cycle": strconv.FormatUint(p.startCycle, 10)}
		if !p.end.IsZero() {
			args["end_cycle"] = strconv.FormatUint(p.endCycle, 10)
		}
		t.Run = append(t.Run, obs.Phase{Name: p.name, Start: p.start, End: p.end, Args: args})
	}
	t.SimEvents, t.SimStart = fl.simEvents, fl.simStart
	return t
}
