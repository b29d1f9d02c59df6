package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// This file is the daemon's gate, in the order a submission meets it: the
// drain check, the tenant's token bucket, then — only for work that has to be
// computed — one slot of the bounded queue. Answers the result memo already
// holds pass the first two and never take a slot.

// Admission prices submissions per tenant in front of the bounded queue.
// Charge is spent by every submission, cached answers included: the quota
// prices requests, not simulations. internal/fleet provides the token-bucket
// implementation, used by the coordinator fleet-wide and by a standalone or
// worker daemon for itself.
type Admission interface {
	Charge(tenant string) (ok bool, retryAfter time.Duration)
}

// rejectDraining answers 503 while the daemon drains. This is the lock-free
// fast path; submit re-checks under s.mu before it attaches a job.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	writeErr(w, http.StatusServiceUnavailable, "server is draining")
	return true
}

// chargeTenant spends one token from the submitting tenant's bucket, or
// answers 429 with the bucket's own refill horizon.
func (s *Server) chargeTenant(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Admission == nil {
		return true
	}
	tenant := r.Header.Get("X-Smtdram-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	ok, retry := s.cfg.Admission.Charge(tenant)
	if ok {
		return true
	}
	s.count(s.mQuotaRejected)
	s.count(s.mRejected)
	secs := max(1, int((retry+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("X-Smtdram-Tenant", tenant)
	writeErr(w, http.StatusTooManyRequests, fmt.Sprintf("tenant %q over quota; retry in %ds", tenant, secs))
	return false
}

// takeSlot takes one queue slot, or answers 429.
func (s *Server) takeSlot(w http.ResponseWriter) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	s.count(s.mRejected)
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusTooManyRequests, fmt.Sprintf("job queue full (%d queued or running); retry later", s.cfg.QueueDepth))
	return false
}

// releaseSlot frees j's queue slot exactly once.
func (s *Server) releaseSlot(j *job) {
	j.mu.Lock()
	freed := j.slotFreed
	j.slotFreed = true
	j.mu.Unlock()
	if !freed {
		<-s.slots
	}
}
