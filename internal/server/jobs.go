package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"smtdram/internal/obs"
	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// This file is the job lifecycle: a job is registered, attached to the
// computation of its fingerprint (a flight in the result memo, shared by
// every identical submission while it runs), marked running when a worker
// picks the flight up, and finished — done, failed or cancelled — exactly
// once.

// job is one tracked submission.
type job struct {
	id      string
	kind    string // "sim" or "figure"
	fp      string
	created time.Time // submit-entry instant; anchors the phase accounting
	deduped bool
	cached  bool
	// outcome is admission's answer: "admitted", "deduped", "cache_hit", or
	// "recovered" for a job rebuilt from the journal. rode is the flight
	// the job was attached to (nil for a cache hit), kept once it resolves:
	// its run record is the run the job's trace shows. Both are written under
	// Server.mu before the job is reachable.
	outcome string
	rode    *flight

	// The job's phase instants, read alike by the phase histograms and the
	// job's trace. tAdmitted is set under Server.mu pre-publication;
	// tRunStart under job.mu (markRunning), or pre-publication for jobs
	// joining a started flight; tDone, the terminal instant (finished,
	// cancelled, or answered from cache), under job.mu with the terminal
	// state. With the flight's resolve instant they telescope: admission +
	// queue + run + respond == end-to-end, exactly.
	tAdmitted time.Time
	tRunStart time.Time
	tDone     time.Time

	// flight is the in-flight computation this job is attached to (nil once
	// resolved or detached). Guarded by Server.mu.
	flight *flight

	mu        sync.Mutex
	state     State
	result    []byte
	errMsg    string
	progress  []byte
	skip      *SkipInfo // set with result (or pre-publication for cached jobs)
	subs      []chan []byte
	slotFreed bool
}

// status snapshots the job for the wire. includeResult controls whether the
// (possibly large) result payload rides along.
func (j *job) status(includeResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state, Fingerprint: j.fp,
		Cached: j.cached, Deduped: j.deduped, Error: j.errMsg,
		Progress: j.progress,
	}
	if j.state == StateDone {
		st.Skip = j.skip
	}
	if includeResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// flight is the daemon's side of one computation in the result memo: the
// jobs riding it and the run record they share. The memo owns the
// computation itself — its context, who is still attached, when it may be
// cancelled; every attached job holds one Join on memo. Joiners reach the
// flight through the memo handle's Tag.
type flight struct {
	id   string // "f-N", the trace correlation key shared by deduped jobs
	fp   string
	memo *runner.Flight[result]
	// jobs lists the attached jobs for progress broadcast and completion.
	// Guarded by Server.mu, like everything below.
	jobs    []*job
	started bool
	// The run record: a worker picked the flight up at runStart
	// (markRunning); the computation resolved at resolved — before a run
	// began, when it was cancelled in the queue — failing with err; phases
	// are a simulation's warmup and measure as the run loop reported them.
	// For traced simulations simStart anchors cycle 0 in wall time and
	// simEvents holds the lifecycle trace.
	runStart, resolved time.Time
	err                string
	phases             []simPhase
	simStart           time.Time
	simEvents          []obs.Event
	// skip is the finished run's two-speed-clock summary (simulation flights
	// only), written by the compute fn before it returns; it becomes part of
	// the memoized result.
	skip *SkipInfo
}

// simPhase is one run-loop phase of a simulation flight: its wall instants
// and its cycle bounds. end is zero while the phase is open.
type simPhase struct {
	name                 string
	start, end           time.Time
	startCycle, endCycle uint64
}

// computeFn builds the body of one flight: what a job of this fingerprint
// runs, given the flight it reports progress and trace state through.
type computeFn func(*flight) func(context.Context) (json.RawMessage, error)

// newJobLocked allocates and registers a job; the caller holds s.mu. Fleet
// nodes embed their id ("j-w1-3") so a coordinator can route any job lookup
// to the node that owns it by parsing the id alone.
func (s *Server) newJobLocked(kind, fp string) *job {
	n := s.nextID.Add(1)
	id := fmt.Sprintf("j-%d", n)
	if s.cfg.NodeID != "" {
		id = fmt.Sprintf("j-%s-%d", s.cfg.NodeID, n)
	}
	return s.registerJobLocked(id, kind, fp)
}

// ValidNodeID checks that id can name a fleet node: one or more of
// [A-Za-z0-9_]. A node's job ids read "j-<node>-<n>" and are routed as one
// URL path segment, so '-' (the delimiter), '/' and anything a URL escapes
// would mint ids that no lookup reaches.
func ValidNodeID(id string) error {
	if id == "" {
		return fmt.Errorf("node id is empty")
	}
	for _, r := range id {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_') {
			return fmt.Errorf("node id %q: %q is not one of [A-Za-z0-9_]", id, r)
		}
	}
	return nil
}

// registerJobLocked registers a job under an explicit id — fresh ids from
// newJobLocked, or original ids preserved across a crash by journal
// recovery. The caller holds s.mu.
func (s *Server) registerJobLocked(id, kind, fp string) *job {
	j := &job{
		id:      id,
		kind:    kind,
		fp:      fp,
		created: time.Now(),
		state:   StateQueued,
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	// Bounded retention: forget the oldest *finished* jobs beyond the cap. If
	// everything is live, let the table run hot rather than drop state.
	for len(s.jobs) > s.cfg.MaxTrackedJobs {
		if !s.evictOldestLocked() {
			break
		}
	}
	return j
}

// evictOldestLocked forgets the oldest job in jobOrder[jobHead:] that is
// finished or no longer in the table, and reports whether there was one. The
// live jobs ahead of it shift one place back, keeping their order; each holds
// an admission slot, so they number at most QueueDepth, and nothing behind
// the evicted id is copied. The order compacts once its head passes half of
// it, which keeps a registration at the cap O(1) amortized. The caller holds
// s.mu.
func (s *Server) evictOldestLocked() bool {
	order := s.jobOrder
	for i := s.jobHead; i < len(order); i++ {
		id := order[i]
		if old := s.jobs[id]; old != nil {
			old.mu.Lock()
			terminal := old.state.Terminal()
			old.mu.Unlock()
			if !terminal {
				continue
			}
			delete(s.jobs, id)
		}
		copy(order[s.jobHead+1:i+1], order[s.jobHead:i])
		order[s.jobHead] = ""
		s.jobHead++
		if s.jobHead > len(order)/2 {
			n := copy(order, order[s.jobHead:])
			clear(order[n:])
			s.jobOrder, s.jobHead = order[:n], 0
		}
		return true
	}
	return false
}

// joinFlightLocked takes one Join on fp's computation in the result memo,
// starting fn (and the flight's awaitFlight waiter) when none is in flight.
// On runner.Hit the result landed since the caller's Lookup: res holds it and
// no flight is returned. The caller holds s.mu, which is what lets a joiner
// read the Tag the starter sets here.
func (s *Server) joinFlightLocked(fp string, fn computeFn) (fl *flight, res result, out runner.Outcome) {
	fl = &flight{fp: fp}
	run := fn(fl)
	h, out := s.results.Join(s.baseCtx, s.pool, fp, func(ctx context.Context) (result, error) {
		val, err := run(ctx)
		if err != nil {
			return result{}, err
		}
		s.mu.Lock()
		skip := fl.skip
		s.mu.Unlock()
		return result{val: val, skip: skip}, nil
	})
	switch out {
	case runner.Hit:
		res, _ = h.Wait(s.baseCtx) // already resolved: returns at once
		return nil, res, out
	case runner.Joined:
		return h.Tag.(*flight), result{}, out
	}
	fl.id = fmt.Sprintf("f-%d", s.nextFlight.Add(1))
	fl.memo = h
	h.Tag = fl
	s.wg.Add(1)
	go s.awaitFlight(fl)
	return fl, result{}, out
}

// attachLocked makes j a rider of fl: the one place a job is wired to a
// flight, for fresh submissions and journal-recovered jobs alike. The caller
// holds s.mu, has taken j's Join (joinFlightLocked) and set j.tAdmitted.
func (s *Server) attachLocked(j *job, fl *flight, out runner.Outcome) {
	j.deduped = out == runner.Joined
	j.outcome = "admitted"
	if j.deduped {
		j.outcome = "deduped"
	}
	j.flight = fl
	j.rode = fl
	if fl.started {
		// Joined a flight already on a worker: the queue phase is empty.
		j.state = StateRunning
		j.tRunStart = j.tAdmitted
	}
	fl.jobs = append(fl.jobs, j)
}

// awaitFlight resolves the flight and completes every job still attached.
// It holds no Join of its own, so it never keeps an abandoned computation
// alive. The memo has already cached a success and written it through to the
// disk tier when Wait returns: once a resolved record hits the journal, the
// bytes it promises are durable (write-ahead ordering).
func (s *Server) awaitFlight(fl *flight) {
	defer s.wg.Done()
	res, err := fl.memo.Wait(context.Background())
	resolved := time.Now()

	s.mu.Lock()
	fl.resolved = resolved
	if err != nil {
		fl.err = err.Error()
	}
	jobs := fl.jobs
	fl.jobs = nil
	for _, j := range jobs {
		j.flight = nil
	}
	s.mu.Unlock()

	for _, j := range jobs {
		s.finishJob(j, res, err, resolved)
	}
}

// finishJob moves one job to its terminal state: it frees its slot, journals
// and counts the outcome, records the phase-partitioned latency metrics, and
// only then publishes the state, with its end instant, and wakes the
// subscribers — so a client that has seen the job finish finds it in every
// counter and histogram /v1/stats reports. awaitFlight detached j before
// calling, and cancelJob leaves a detached job alone, so this is j's one
// terminal transition. resolved is the instant the flight resolved — the
// run→respond phase boundary shared by every rider.
func (s *Server) finishJob(j *job, res result, err error, resolved time.Time) {
	state, errMsg := StateDone, ""
	if err != nil {
		state, errMsg = StateFailed, err.Error()
	}
	j.mu.Lock()
	tAdmitted, tRunStart := j.tAdmitted, j.tRunStart
	j.mu.Unlock()

	s.releaseSlot(j)
	done := time.Now()
	dur := done.Sub(j.created)
	s.journalAppend(store.Record{Type: store.RecResolved, Job: j.id, Kind: j.kind, FP: j.fp, State: string(state), Error: errMsg})
	if state == StateFailed {
		s.mFailed.Add(1)
		s.log.Warn("job failed", "job", j.id, "flight", j.rode.id, "dur", dur.Truncate(time.Millisecond), "err", err)
	} else {
		s.mCompleted.Add(1)
		s.log.Info("job done", "job", j.id, "flight", j.rode.id, "dur", dur.Truncate(time.Millisecond))
		// The four phases partition [created, done] exactly:
		// admission ends at tAdmitted, queue at tRunStart, run at
		// resolved, respond at done.
		s.observeServed(dur, tAdmitted.Sub(j.created), tRunStart.Sub(tAdmitted), resolved.Sub(tRunStart), done.Sub(resolved))
	}

	j.mu.Lock()
	j.state, j.errMsg, j.tDone = state, errMsg, done
	if err == nil {
		j.result = res.val
		j.skip = res.skip
	}
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.mu.Unlock()
}

// cancelJob detaches j from its flight and moves it to cancelled. A job with
// no flight is terminal already, or its flight has resolved and awaitFlight is
// finishing it: either way there is nothing left to cancel. Leaving the flight
// gives up j's Join; the memo cancels the computation when the last rider has
// left, and never before.
func (s *Server) cancelJob(j *job) {
	// Whoever detaches the job under s.mu owns its terminal transition, so a
	// concurrent completion cannot finish a cancelled job, nor the reverse.
	s.mu.Lock()
	fl := j.flight
	if fl == nil {
		s.mu.Unlock()
		return
	}
	j.flight = nil
	for i, jj := range fl.jobs {
		if jj == j {
			fl.jobs = append(fl.jobs[:i], fl.jobs[i+1:]...)
			break
		}
	}
	lastRider := len(fl.jobs) == 0
	s.mu.Unlock()
	fl.memo.Leave()

	j.mu.Lock()
	j.state, j.tDone = StateCancelled, time.Now()
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	dur := j.tDone.Sub(j.created)
	j.mu.Unlock()
	s.releaseSlot(j)
	s.mCancelled.Add(1)
	s.journalAppend(store.Record{Type: store.RecCancelled, Job: j.id, Kind: j.kind, FP: j.fp})
	s.log.Info("job cancelled", "job", j.id, "flight", fl.id,
		"dur", dur.Truncate(time.Millisecond), "flight_cancelled", lastRider)
}

// markRunning flips a flight's attached jobs to running; called by the
// flight's compute fn the moment a pool worker picks it up. It stamps the
// run-start instant on the flight's run record and on every rider, where it
// ends the queue phase.
func (s *Server) markRunning(fl *flight) {
	s.mu.Lock()
	// Read the clock under s.mu: every rider's tAdmitted was stamped under it,
	// so the run-start instant cannot precede one (a worker can pick the
	// flight up before the submission that started it has attached).
	now := time.Now()
	fl.started = true
	fl.runStart = now
	jobs := append([]*job(nil), fl.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateRunning
		}
		if j.tRunStart.IsZero() {
			j.tRunStart = now
		}
		j.mu.Unlock()
		s.journalAppend(store.Record{Type: store.RecStarted, Job: j.id})
	}
}

// markPhase records a run-loop phase boundary on the flight's run record at
// the wall instant it is reported: the open phase, if any, ends at cycle, and
// a named boundary opens the next. It is the simulation observer's Phase hook.
func (s *Server) markPhase(fl *flight, name string, cycle uint64) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(fl.phases); n > 0 && fl.phases[n-1].end.IsZero() {
		fl.phases[n-1].end, fl.phases[n-1].endCycle = now, cycle
	}
	if name != "" {
		fl.phases = append(fl.phases, simPhase{name: name, start: now, startCycle: cycle})
	}
}

// broadcastProgress fans a progress sample out to every subscriber of every
// job attached to the flight. Slow subscribers drop samples rather than
// stall the simulation.
func (s *Server) broadcastProgress(fl *flight, sample []byte) {
	s.mu.Lock()
	jobs := append([]*job(nil), fl.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		j.progress = sample
		for _, ch := range j.subs {
			select {
			case ch <- sample:
			default:
			}
		}
		j.mu.Unlock()
	}
}
