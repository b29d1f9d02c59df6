package server

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// This file is the daemon's instance of runner.Memo: what a memoized result
// is, and the two tiers behind memory. Determinism makes the memo cheap to
// trust: a fingerprint fully names a result, so an entry in any tier never
// goes stale and a re-run produces byte-identical output.

// result is one memoized answer: the marshalled core.Result (or rendered
// figure) bytes — immutable once stored, so readers hand them straight to
// responses without copying — and the producing run's two-speed-clock summary
// (nil for figure sweeps), which rides beside the byte-identical payload so a
// cached answer reports the skip statistics the original run did.
type result struct {
	val  []byte
	skip *SkipInfo
}

// storeMeta is the sidecar blob stored beside each result payload: data that
// rides next to — never inside — the byte-identical result bytes.
type storeMeta struct {
	Skip *SkipInfo `json:"skip,omitempty"`
}

func (r result) meta() []byte {
	if r.skip == nil {
		return nil
	}
	meta, _ := json.Marshal(storeMeta{Skip: r.skip}) // plain numeric struct: cannot fail
	return meta
}

func resultOf(payload, meta []byte) result {
	r := result{val: payload}
	var m storeMeta
	if len(meta) > 0 && json.Unmarshal(meta, &m) == nil {
		r.skip = m.Skip
	}
	return r
}

// openTiers hangs the configured tiers behind the result memo: the
// content-addressed disk store, then the fleet's peers. A computed result is
// written through to the store before any job resolves; a peer hit is
// written to the store too, so the entry's new owner serves it from disk next
// time (first-touch anti-entropy).
func (s *Server) openTiers() {
	if s.store != nil {
		s.storeTier = &runner.Tier[string, result]{Get: s.storeGet, Put: s.storePut}
		s.results.Tiers = append(s.results.Tiers, s.storeTier)
	}
	if s.cfg.PeerFetch != nil {
		s.peerTier = &runner.Tier[string, result]{Get: s.peerGet}
		s.results.Tiers = append(s.results.Tiers, s.peerTier)
	}
}

// localDepth is the Lookup depth that stops short of the peers: what this
// node holds itself. A peer's ask and journal recovery use it — asking the
// fleet on a peer's behalf would bounce the question around the ring.
func (s *Server) localDepth() int {
	if s.storeTier != nil {
		return 1
	}
	return 0
}

// resultFormat prefixes every store key: bump it when Result bytes move under
// unchanged fingerprints, so a data directory an earlier build wrote recomputes
// (format 1 had no prefix; 2 reduced FaultReport to drops, retries, failover).
const resultFormat = "r2|"

// storeGet reads the disk tier. A corrupt entry has already been quarantined
// by the store; it reports as such and the result is recomputed.
func (s *Server) storeGet(_ context.Context, fp string) (result, error) {
	payload, meta, err := s.store.Get(resultFormat + fp)
	switch {
	case err == nil:
		return resultOf(payload, meta), nil
	case errors.Is(err, store.ErrNotFound):
		return result{}, runner.ErrMiss
	}
	s.log.Warn("store entry corrupt; quarantined, recomputing", "fp", fp, "err", err)
	return result{}, err
}

// storePut writes a result through to the disk tier. Write errors degrade
// the store to memory-only mode: serving continues from memory and
// recomputation, and /readyz turns unready.
func (s *Server) storePut(fp string, r result) {
	if err := s.store.Put(resultFormat+fp, r.val, r.meta()); err != nil {
		s.count(s.mStoreWriteErrors)
		if !errors.Is(err, store.ErrDegraded) {
			s.log.Warn("store write failed; degrading to memory-only result serving",
				"fp", fp, "err", err)
		}
	}
}

// peerGet asks the fleet for the key's previous owner's copy: membership
// changed, or the sweep warmed a sibling. The transfer is CRC-verified; an
// entry that fails it reports corrupt and is recomputed locally — corrupt
// bytes are never served.
func (s *Server) peerGet(ctx context.Context, fp string) (result, error) {
	timeout := s.cfg.PeerTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	payload, meta, err := s.cfg.PeerFetch.Fetch(ctx, fp)
	switch {
	case err == nil:
		s.log.Info("peer cache hit", "fp", fp)
		return resultOf(payload, meta), nil
	case errors.Is(err, ErrPeerCorrupt):
		s.log.Warn("peer entry corrupt; recomputing locally", "fp", fp, "err", err)
		return result{}, err
	}
	return result{}, runner.ErrMiss
}
