package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"smtdram/internal/core"
	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// This file wires the durability layer (internal/store) into the daemon:
//
//   - the result memo gains a disk tier (results.go): lookups fall back
//     memory → disk → compute, and every computed result is written through
//     to the content-addressed store before its jobs resolve;
//   - every job lifecycle transition is journaled write-ahead (submitted
//     with the full request, started, resolved, cancelled);
//   - startup replays the journal: finished jobs are rehydrated from the
//     store (so their ids keep answering), jobs that were queued or running
//     at crash time are re-enqueued under their original ids, and the
//     journal is compacted to exactly the live state;
//   - /readyz reports 503 until recovery's re-enqueued jobs finish, and
//     whenever the store or journal has degraded to memory-only mode.
//
// Determinism makes all of this cheap to trust: a fingerprint fully names a
// result, so a stored entry never goes stale and a re-run after a crash
// produces byte-identical output.

// journalFileName is the write-ahead journal's file name under DataDir.
const journalFileName = "journal.wal"

// openDurable opens the result store under cfg.DataDir. Open failures degrade
// to memory-only serving with a warning — the daemon always comes up.
func (s *Server) openDurable() {
	if s.cfg.DataDir == "" {
		return
	}
	s.storeWanted = true
	st, err := store.Open(s.cfg.DataDir, s.cfg.Fsync)
	if err != nil {
		s.log.Warn("result store unavailable; serving memory-only", "dir", s.cfg.DataDir, "err", err)
		return
	}
	s.store = st
}

// journalAppend writes one write-ahead record; append failures disable the
// journal (memory-only durability) rather than failing the job.
func (s *Server) journalAppend(r store.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(r); err != nil {
		s.count(s.mJournalErrors)
		if !errors.Is(err, store.ErrDegraded) {
			s.log.Warn("journal append failed; write-ahead durability disabled", "job", r.Job, "err", err)
		}
		return
	}
	s.count(s.mJournalRecords)
}

// durabilityDegraded reports whether the configured disk tier is not fully
// functional (open failure, write error, or journal failure).
func (s *Server) durabilityDegraded() bool {
	if !s.storeWanted {
		return false
	}
	return s.store == nil || s.store.Degraded() ||
		s.journal == nil || s.journal.Degraded()
}

// recoveryOutstanding counts re-enqueued jobs that have not yet finished
// their post-crash re-run.
func (s *Server) recoveryOutstanding() int {
	n := 0
	for _, j := range s.recovered {
		j.mu.Lock()
		if !j.state.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// foldedJob is one job's state reconstructed from journal replay. Records
// are folded order-independently: a resolved record landing (in wall time)
// before its submitted record still folds to a complete picture.
type foldedJob struct {
	kind, fp string
	req      json.RawMessage
	state    State // zero ⇒ queued/running (re-enqueue)
	errMsg   string
}

// recoverFromJournal replays the write-ahead journal, rebuilds the job
// table, compacts the journal, and re-enqueues interrupted jobs. It runs
// inside New, before the handler is reachable, so clients never observe a
// half-recovered table; the re-enqueued runs themselves proceed in the
// background and /readyz reports 503 until they finish.
func (s *Server) recoverFromJournal() {
	path := filepath.Join(s.cfg.DataDir, journalFileName)
	recs, err := store.ReadJournal(path)
	if err != nil {
		s.log.Warn("journal unreadable; starting with an empty job table", "path", path, "err", err)
		recs = nil
	}
	s.recReplayed = len(recs)

	var order []string
	byID := map[string]*foldedJob{}
	var maxID uint64
	for _, r := range recs {
		f := byID[r.Job]
		if f == nil {
			f = &foldedJob{}
			byID[r.Job] = f
			order = append(order, r.Job)
		}
		if n, ok := parseJobID(r.Job); ok && n > maxID {
			maxID = n
		}
		// Kind and fingerprint ride on submitted, resolved, and cancelled
		// records alike: a compacted journal holds only the latest record per
		// job, so every type must be able to name the job on its own.
		if f.kind == "" {
			f.kind = r.Kind
		}
		if f.fp == "" {
			f.fp = r.FP
		}
		switch r.Type {
		case store.RecSubmitted:
			f.req = r.Request
		case store.RecResolved:
			if r.State == string(StateFailed) {
				f.state, f.errMsg = StateFailed, r.Error
			} else {
				f.state = StateDone
			}
		case store.RecCancelled:
			f.state = StateCancelled
		}
	}
	// Fresh ids must never collide with recovered ones. Single-threaded:
	// the handler is not reachable yet.
	if s.nextID.Load() < maxID {
		s.nextID.Store(maxID)
	}

	// Pass 1: rehydrate terminal jobs and decide which to re-enqueue; the
	// compacted journal is exactly this live state.
	var compact []store.Record
	type pendingJob struct {
		id string
		f  *foldedJob
	}
	var pending []pendingJob
	for _, id := range order {
		f := byID[id]
		if f.state == StateDone || f.state == "" {
			// Done jobs rehydrate from the store; interrupted jobs whose
			// fingerprint already has a stored result (a sibling finished
			// and persisted before the crash) rehydrate the same way.
			if res, ok := s.results.Lookup(s.baseCtx, f.fp); ok {
				s.rehydrateTerminal(id, f.kind, f.fp, StateDone, "", res)
				s.recRehydrated++
				// Keep the (tiny) request in the compacted record: if the
				// stored result is ever quarantined, a later recovery re-runs
				// the job instead of failing it.
				compact = append(compact, store.Record{Type: store.RecResolved, Job: id, Kind: f.kind, FP: f.fp, State: string(StateDone), Request: f.req})
				continue
			}
			if len(f.req) == 0 {
				// Result lost and no request to re-run (pre-durability
				// record or torn journal): the id must still answer.
				s.rehydrateTerminal(id, f.kind, f.fp, StateFailed, "recovery: result lost and request not journaled", result{})
				compact = append(compact, store.Record{Type: store.RecResolved, Job: id, Kind: f.kind, FP: f.fp, State: string(StateFailed), Error: "recovery: result lost and request not journaled"})
				continue
			}
			pending = append(pending, pendingJob{id: id, f: f})
			compact = append(compact, store.Record{Type: store.RecSubmitted, Job: id, Kind: f.kind, FP: f.fp, Request: f.req})
			continue
		}
		s.rehydrateTerminal(id, f.kind, f.fp, f.state, f.errMsg, result{})
		rec := store.Record{Type: store.RecResolved, Job: id, Kind: f.kind, FP: f.fp, State: string(f.state), Error: f.errMsg}
		if f.state == StateCancelled {
			rec = store.Record{Type: store.RecCancelled, Job: id, Kind: f.kind, FP: f.fp}
		}
		compact = append(compact, rec)
	}

	// Rotate before re-enqueueing, so the re-runs' started/resolved records
	// land in the fresh journal, after their compacted submitted records.
	j, err := store.RotateJournal(path, compact, s.cfg.Fsync)
	if err != nil {
		s.log.Warn("journal rotation failed; write-ahead durability disabled", "path", path, "err", err)
	} else {
		s.journal = j
	}

	for _, p := range pending {
		if rj := s.reenqueueRecovered(p.id, p.f); rj != nil {
			s.recovered = append(s.recovered, rj)
			s.recReenqueued++
		}
	}

	if s.recReplayed > 0 {
		s.log.Info("journal recovery complete",
			"records", s.recReplayed, "rehydrated", s.recRehydrated, "reenqueued", s.recReenqueued)
	}
}

// parseJobID extracts the numeric suffix of a job id — "j-N" standalone,
// "j-<node>-N" on a fleet node (node ids never contain '-').
func parseJobID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	if i := strings.LastIndexByte(rest, '-'); i >= 0 {
		rest = rest[i+1:]
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// rehydrateTerminal registers a job already in a terminal state — a finished
// job surviving the restart, so its id keeps answering /v1/jobs/{id}.
func (s *Server) rehydrateTerminal(id, kind, fp string, state State, errMsg string, res result) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.registerJobLocked(id, kind, fp)
	j.outcome = "recovered"
	j.tAdmitted, j.tDone = j.created, j.created
	j.state = state
	j.errMsg = errMsg
	j.result = res.val
	j.skip = res.skip
	j.slotFreed = true // never held an admission token in this process
	return j
}

// reenqueueRecovered rebuilds the flight for a job that was queued or
// running at crash time and re-runs it under its original id. A request that
// no longer parses (schema drift across a binary upgrade) fails the job
// rather than dropping it.
func (s *Server) reenqueueRecovered(id string, f *foldedJob) *job {
	var fn computeFn
	switch f.kind {
	case "sim":
		var req SimRequest
		var cfg core.Config
		err := json.Unmarshal(f.req, &req)
		if err == nil {
			cfg, err = req.Config()
		}
		if err != nil {
			return s.rehydrateTerminal(id, f.kind, f.fp, StateFailed, "recovery: "+err.Error(), result{})
		}
		fn = func(fl *flight) func(context.Context) (json.RawMessage, error) {
			return s.simFlightFn(fl, cfg, req.Trace)
		}
	case "figure":
		var req FigRequest
		err := json.Unmarshal(f.req, &req)
		if err == nil {
			err = req.validate()
		}
		if err != nil {
			return s.rehydrateTerminal(id, f.kind, f.fp, StateFailed, "recovery: "+err.Error(), result{})
		}
		fn = func(fl *flight) func(context.Context) (json.RawMessage, error) {
			return s.figFlightFn(fl, req)
		}
	default:
		return s.rehydrateTerminal(id, f.kind, f.fp, StateFailed, fmt.Sprintf("recovery: unknown job kind %q", f.kind), result{})
	}

	s.mu.Lock()
	fl, res, out := s.joinFlightLocked(f.fp, fn)
	if out == runner.Hit {
		// A sibling re-enqueued just before this job has already finished.
		s.mu.Unlock()
		s.journalAppend(store.Record{Type: store.RecResolved, Job: id, Kind: f.kind, FP: f.fp, State: string(StateDone)})
		return s.rehydrateTerminal(id, f.kind, f.fp, StateDone, "", res)
	}
	j := s.registerJobLocked(id, f.kind, f.fp)
	j.tAdmitted = j.created
	s.attachLocked(j, fl, out)
	j.outcome = "recovered"
	// Take a queue slot if one is free; recovered jobs were admitted before
	// the crash, so they re-enter even when the queue shrank.
	select {
	case s.slots <- struct{}{}:
	default:
		j.slotFreed = true
	}
	s.mu.Unlock()
	s.log.Info("job re-enqueued from journal", "job", id, "kind", f.kind, "fp", f.fp, "flight", fl.id)
	return j
}

// StoreHealth is the durable-store section of /readyz and /v1/stats.
type StoreHealth struct {
	// Configured reports whether a data directory was given at all.
	Configured bool `json:"configured"`
	// Degraded reports a store or journal that hit an IO error and fell
	// back to memory-only operation (sticky until restart).
	Degraded bool `json:"degraded"`
	Entries  int  `json:"entries"`
}

// RecoveryStatus reports startup journal recovery progress.
type RecoveryStatus struct {
	ReplayedRecords int `json:"replayed_records"`
	Rehydrated      int `json:"rehydrated"`
	Reenqueued      int `json:"reenqueued"`
	// Outstanding counts re-enqueued jobs still re-running; readiness
	// requires zero.
	Outstanding int `json:"outstanding"`
}

// Readiness is the /readyz payload.
type Readiness struct {
	Ready    bool           `json:"ready"`
	Draining bool           `json:"draining"`
	Store    StoreHealth    `json:"store"`
	Recovery RecoveryStatus `json:"recovery"`
	// Reasons lists why Ready is false (empty when ready).
	Reasons []string `json:"reasons,omitempty"`
}

func (s *Server) storeHealth() StoreHealth {
	h := StoreHealth{Configured: s.storeWanted, Degraded: s.durabilityDegraded()}
	if s.store != nil {
		h.Entries = s.store.Len()
	}
	return h
}

func (s *Server) recoveryStatus() RecoveryStatus {
	return RecoveryStatus{
		ReplayedRecords: s.recReplayed,
		Rehydrated:      s.recRehydrated,
		Reenqueued:      s.recReenqueued,
		Outstanding:     s.recoveryOutstanding(),
	}
}

// readiness assembles the /readyz verdict: unready while draining, while
// journal recovery is still re-running interrupted jobs, and while the disk
// tier is degraded.
func (s *Server) readiness() Readiness {
	r := Readiness{
		Draining: s.draining.Load(),
		Store:    s.storeHealth(),
		Recovery: s.recoveryStatus(),
	}
	if r.Draining {
		r.Reasons = append(r.Reasons, "draining")
	}
	if r.Recovery.Outstanding > 0 {
		r.Reasons = append(r.Reasons, fmt.Sprintf("recovering (%d jobs re-running)", r.Recovery.Outstanding))
	}
	if r.Store.Degraded {
		r.Reasons = append(r.Reasons, "store degraded to memory-only mode")
	}
	r.Ready = len(r.Reasons) == 0
	return r
}
