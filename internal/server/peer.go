package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"smtdram/internal/store"
)

// This file is the daemon's fleet surface (DESIGN §16): the cache-peering
// hook a fleet wires in (tenant admission, the other hook, is in
// admission.go) and the two endpoints other fleet members call (peer entry
// transfer, identity probe). The server never imports internal/fleet — fleet
// implements these interfaces and cmd/smtdramd connects the two — so the
// dependency arrow stays one-way.

// PeerFetcher consults fleet peers for a durable-store entry on a local
// miss. A hit returns the entry's payload and meta sidecar, already
// CRC-verified against the store framing; ErrPeerMiss is a clean miss, and an
// error wrapping ErrPeerCorrupt reports an entry that failed verification
// (counted, then treated as a miss — corrupt bytes are never served).
type PeerFetcher interface {
	Fetch(ctx context.Context, key string) (payload, meta []byte, err error)
}

// ErrPeerMiss reports that no peer holds the key.
var ErrPeerMiss = errors.New("peer: entry not found")

// ErrPeerCorrupt reports a peer entry that failed CRC verification.
var ErrPeerCorrupt = errors.New("peer: entry corrupt")

// Role reports how this daemon presents in a fleet: "worker" when it has a
// node identity, "single" otherwise. (The coordinator is its own process and
// reports "coordinator".)
func (s *Server) Role() string {
	if s.cfg.NodeID != "" {
		return "worker"
	}
	return "single"
}

// handlePeerResult serves one durable entry to a fleet peer in the store's
// CRC-framed entry format (GET /v1/peer/result?key=K): the result memo's
// memory, then its disk tier, promoting a disk hit so a hot re-owned key is
// read from disk once. A corrupt on-disk entry has already been quarantined
// by store.Get and reports as a miss here — a peer never receives bytes the
// local daemon would not serve itself.
func (s *Server) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	res, _, ok := s.results.Lookup(r.Context(), key, s.localDepth())
	if !ok {
		s.count(s.mPeerServeMisses)
		writeErr(w, http.StatusNotFound, "no entry for key")
		return
	}
	s.count(s.mPeerServed)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(store.EncodeEntry(key, res.meta(), res.val))
}

// NodeSelf is the /v1/fleet/self payload: the identity probe the coordinator
// uses to learn a worker's node id and readiness in one round trip.
type NodeSelf struct {
	NodeID        string   `json:"node_id"`
	Role          string   `json:"role"`
	Ready         bool     `json:"ready"`
	Reasons       []string `json:"reasons,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

func (s *Server) handleFleetSelf(w http.ResponseWriter, r *http.Request) {
	rep := s.readiness()
	writeJSON(w, http.StatusOK, NodeSelf{
		NodeID:        s.cfg.NodeID,
		Role:          s.Role(),
		Ready:         rep.Ready,
		Reasons:       rep.Reasons,
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
	})
}
